package features

import (
	"math"
	"testing"
	"time"

	"behaviot/internal/flows"
)

var base = time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC)

func mkFlow(metas []flows.PacketMeta) *flows.Flow {
	f := &flows.Flow{Device: "Test", Proto: "TCP"}
	if len(metas) > 0 {
		f.Start = metas[0].Time
		f.End = metas[len(metas)-1].Time
	}
	f.Packets = metas
	return f
}

func TestExtractDimAndNames(t *testing.T) {
	if len(Names) != Dim {
		t.Fatalf("Names has %d entries, want %d", len(Names), Dim)
	}
	v := Extract(mkFlow(nil))
	if len(v) != Dim {
		t.Fatalf("vector dim = %d, want %d", len(v), Dim)
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("empty flow feature %s = %v, want 0", Names[i], x)
		}
	}
}

func TestExtractSizes(t *testing.T) {
	f := mkFlow([]flows.PacketMeta{
		{Time: base, Size: 100, Dir: flows.DirOutbound},
		{Time: base.Add(100 * time.Millisecond), Size: 200, Dir: flows.DirInbound},
		{Time: base.Add(300 * time.Millisecond), Size: 300, Dir: flows.DirOutbound},
	})
	v := Extract(f)
	if v[0] != 200 { // meanBytes
		t.Errorf("meanBytes = %v", v[0])
	}
	if v[1] != 100 || v[2] != 300 { // min/max
		t.Errorf("min/max = %v/%v", v[1], v[2])
	}
	if v[3] != 100 { // medAbsDev: |100-200|,|200-200|,|300-200| → median 100
		t.Errorf("medAbsDev = %v", v[3])
	}
}

func TestExtractTimings(t *testing.T) {
	f := mkFlow([]flows.PacketMeta{
		{Time: base, Size: 100},
		{Time: base.Add(100 * time.Millisecond), Size: 100},
		{Time: base.Add(400 * time.Millisecond), Size: 100},
	})
	v := Extract(f)
	// TBP = [0.1, 0.3]: mean 0.2, median 0.2.
	if math.Abs(v[6]-0.2) > 1e-9 {
		t.Errorf("meanTBP = %v", v[6])
	}
	if math.Abs(v[8]-0.2) > 1e-9 {
		t.Errorf("medianTBP = %v", v[8])
	}
	if math.Abs(v[7]-0.01) > 1e-9 { // var of [0.1,0.3] = 0.01
		t.Errorf("varTBP = %v", v[7])
	}
}

func TestExtractDirectionCounts(t *testing.T) {
	f := mkFlow([]flows.PacketMeta{
		{Time: base, Size: 100, Dir: flows.DirOutbound},
		{Time: base, Size: 200, Dir: flows.DirOutbound},
		{Time: base, Size: 300, Dir: flows.DirInbound},
		{Time: base, Size: 50, Dir: flows.DirOutbound, Local: true},
		{Time: base, Size: 60, Dir: flows.DirInbound, Local: true},
		{Time: base, Size: 70, Dir: flows.DirInbound, Local: true},
	})
	v := Extract(f)
	if v[11] != 2 { // out external
		t.Errorf("network_out_external = %v", v[11])
	}
	if v[12] != 1 { // in external
		t.Errorf("network_in_external = %v", v[12])
	}
	if v[13] != 3 { // total external
		t.Errorf("network_external = %v", v[13])
	}
	if v[14] != 3 { // total local
		t.Errorf("network_local = %v", v[14])
	}
	if v[15] != 1 || v[16] != 2 {
		t.Errorf("local out/in = %v/%v", v[15], v[16])
	}
	if v[17] != 150 { // mean out external bytes
		t.Errorf("meanBytes_out_external = %v", v[17])
	}
	if v[18] != 300 {
		t.Errorf("meanBytes_in_external = %v", v[18])
	}
	if v[19] != 50 {
		t.Errorf("meanBytes_out_local = %v", v[19])
	}
	if v[20] != 65 {
		t.Errorf("meanBytes_in_local = %v", v[20])
	}
}

func TestExtractSinglePacket(t *testing.T) {
	f := mkFlow([]flows.PacketMeta{{Time: base, Size: 500, Dir: flows.DirOutbound}})
	v := Extract(f)
	if v[0] != 500 || v[1] != 500 || v[2] != 500 {
		t.Errorf("single packet size stats = %v %v %v", v[0], v[1], v[2])
	}
	// No TBP values: timing features must be 0, not NaN.
	for i := 6; i <= 10; i++ {
		if math.IsNaN(v[i]) {
			t.Errorf("feature %s is NaN for single packet", Names[i])
		}
	}
}

func TestNoNaNsEver(t *testing.T) {
	cases := []*flows.Flow{
		mkFlow(nil),
		mkFlow([]flows.PacketMeta{{Time: base, Size: 0}}),
		mkFlow([]flows.PacketMeta{{Time: base, Size: 100}, {Time: base, Size: 100}}),
	}
	for ci, f := range cases {
		for i, x := range Extract(f) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("case %d feature %s = %v", ci, Names[i], x)
			}
		}
	}
}

func TestNormalizer(t *testing.T) {
	vs := [][]float64{
		make([]float64, Dim),
		make([]float64, Dim),
		make([]float64, Dim),
	}
	for i := range vs {
		vs[i][0] = float64(i * 100) // varying feature
		vs[i][1] = 42               // constant feature
	}
	n := FitNormalizer(vs)
	out := n.ApplyAll(vs)
	// Varying feature: mean 0 across samples.
	var m float64
	for _, v := range out {
		m += v[0]
	}
	if math.Abs(m) > 1e-9 {
		t.Errorf("normalized mean = %v", m/3)
	}
	// Constant feature: all zeros, no division by zero.
	for _, v := range out {
		if v[1] != 0 || math.IsNaN(v[1]) {
			t.Errorf("constant feature normalized to %v", v[1])
		}
	}
}

func TestNormalizerPreservesInput(t *testing.T) {
	v := make([]float64, Dim)
	v[0] = 7
	n := FitNormalizer([][]float64{v})
	_ = n.Apply(v)
	if v[0] != 7 {
		t.Error("Apply mutated its input")
	}
}

func BenchmarkExtract(b *testing.B) {
	metas := make([]flows.PacketMeta, 50)
	for i := range metas {
		metas[i] = flows.PacketMeta{
			Time: base.Add(time.Duration(i) * 20 * time.Millisecond),
			Size: 100 + i%7*30,
			Dir:  flows.Direction(i % 2),
		}
	}
	f := mkFlow(metas)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(f)
	}
}
