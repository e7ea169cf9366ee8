package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/netparse"
	"behaviot/internal/testbed"
)

// mkPeriodicFlows builds n synthetic bursts for one traffic group with the
// given period (seconds), each with a fixed 2-packet exchange.
func mkPeriodicFlows(device, domain string, period float64, n int) []*flows.Flow {
	base := time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC)
	out := make([]*flows.Flow, n)
	for i := range out {
		start := base.Add(time.Duration(float64(i) * period * float64(time.Second)))
		f := &flows.Flow{
			Device: device,
			Domain: domain,
			Proto:  "TCP",
			Start:  start,
			End:    start.Add(100 * time.Millisecond),
			Tuple: netparse.FiveTuple{
				Proto: netparse.ProtoTCP, DstPort: 443,
			},
			Packets: []flows.PacketMeta{
				{Time: start, Size: 120, Dir: flows.DirOutbound},
				{Time: start.Add(50 * time.Millisecond), Size: 340, Dir: flows.DirInbound},
			},
		}
		out[i] = f
	}
	return out
}

func TestInferPeriodicModelsBasic(t *testing.T) {
	training := mkPeriodicFlows("Dev", "cloud.example.com", 60, 200)
	models, aperiodic := InferPeriodicModels(training, DefaultPeriodicConfig())
	if len(models) != 1 {
		t.Fatalf("models = %d, want 1", len(models))
	}
	if len(aperiodic) != 0 {
		t.Errorf("aperiodic groups = %v", aperiodic)
	}
	for _, m := range models {
		if m.Period < 54 || m.Period > 66 {
			t.Errorf("period = %v, want ~60", m.Period)
		}
		if m.FlowCount != 200 {
			t.Errorf("flow count = %d", m.FlowCount)
		}
		if m.String() == "" {
			t.Error("empty model string")
		}
	}
}

// TestInferPeriodicModelsLaneInvariant trains the idle fixture (a day
// of the TPLink plug and the Gosund bulb, the recipe behaviotd's model
// pin uses) on 1, 2 and 5 lanes: the models must serialize to the same
// bytes and the aperiodic groups must be the same list. The fixture's
// groups are all periodic, so two aperiodic ones are added: one too
// short to mine and one of randomly timed flows.
func TestInferPeriodicModelsLaneInvariant(t *testing.T) {
	tb := testbed.New()
	devices := []*testbed.DeviceProfile{tb.Device("TPLink Plug"), tb.Device("Gosund Bulb")}
	idle := datasets.Idle(tb, 1, datasets.DefaultStart, 1, devices, 0)
	idle = append(idle, mkPeriodicFlows("Dev", "short.example.com", 60, 3)...)
	rng := rand.New(rand.NewSource(3))
	for _, f := range mkPeriodicFlows("Dev", "random.example.com", 1, 200) {
		f.Start = f.Start.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
		idle = append(idle, f)
	}
	cfg := DefaultPeriodicConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var wantSnap []byte
	var wantAperiodic []flows.GroupKey
	for _, procs := range []int{1, 2, 5} {
		runtime.GOMAXPROCS(procs)
		models, aperiodic := InferPeriodicModels(idle, cfg)
		snap := MarshalPipeline(&Pipeline{Periodic: NewPeriodicClassifier(models, cfg)})
		if procs == 1 {
			if len(models) == 0 || len(aperiodic) == 0 {
				t.Fatalf("fixture mined %d periodic and %d aperiodic groups; want some of each", len(models), len(aperiodic))
			}
			wantSnap, wantAperiodic = snap, aperiodic
			continue
		}
		if !bytes.Equal(snap, wantSnap) {
			t.Errorf("GOMAXPROCS %d: models serialize to %d bytes that differ from the one-lane %d", procs, len(snap), len(wantSnap))
		}
		if !slices.Equal(aperiodic, wantAperiodic) {
			t.Errorf("GOMAXPROCS %d: aperiodic %v, one lane %v", procs, aperiodic, wantAperiodic)
		}
	}
}

func TestInferPeriodicModelsRejectsShortGroups(t *testing.T) {
	training := mkPeriodicFlows("Dev", "x.example.com", 60, 3)
	models, aperiodic := InferPeriodicModels(training, DefaultPeriodicConfig())
	if len(models) != 0 {
		t.Errorf("3-flow group modeled as periodic")
	}
	if len(aperiodic) != 1 {
		t.Errorf("aperiodic = %v", aperiodic)
	}
}

func TestPeriodicClassifierTimerPath(t *testing.T) {
	training := mkPeriodicFlows("Dev", "cloud.example.com", 60, 200)
	models, _ := InferPeriodicModels(training, DefaultPeriodicConfig())
	pc := NewPeriodicClassifier(models, DefaultPeriodicConfig())
	pc.DisableCluster = true // timer only

	test := mkPeriodicFlows("Dev", "cloud.example.com", 60, 10)
	hits := 0
	for _, f := range test {
		if pc.Classify(f) {
			hits++
		}
	}
	// All flows arrive on schedule; the first anchors the timer.
	if hits != 10 {
		t.Errorf("timer hits = %d/10", hits)
	}
	if _, ok := pc.Anchors()[test[0].Key()]; !ok {
		t.Error("timer anchor not tracked")
	}
	pc.Reset()
	if _, ok := pc.Anchors()[test[0].Key()]; ok {
		t.Error("Reset did not clear anchors")
	}
}

func TestPeriodicClassifierTimerRejectsOffSchedule(t *testing.T) {
	training := mkPeriodicFlows("Dev", "cloud.example.com", 60, 200)
	models, _ := InferPeriodicModels(training, DefaultPeriodicConfig())
	pc := NewPeriodicClassifier(models, DefaultPeriodicConfig())
	pc.DisableCluster = true

	test := mkPeriodicFlows("Dev", "cloud.example.com", 60, 2)
	if !pc.Classify(test[0]) {
		t.Fatal("anchor flow rejected")
	}
	// A flow 25 seconds after the anchor is far off the 60 s schedule.
	off := mkPeriodicFlows("Dev", "cloud.example.com", 60, 1)[0]
	off.Start = test[0].Start.Add(25 * time.Second)
	if pc.Classify(off) {
		t.Error("off-schedule flow accepted by timer")
	}
}

func TestPeriodicClassifierClusterFallback(t *testing.T) {
	training := mkPeriodicFlows("Dev", "cloud.example.com", 60, 200)
	models, _ := InferPeriodicModels(training, DefaultPeriodicConfig())
	pc := NewPeriodicClassifier(models, DefaultPeriodicConfig())
	pc.DisableTimer = true // cluster only

	// Same shape flows, arbitrary timing: the cluster stage matches them.
	test := mkPeriodicFlows("Dev", "cloud.example.com", 17.3, 5)
	hits := 0
	for _, f := range test {
		if pc.Classify(f) {
			hits++
		}
	}
	if hits != 5 {
		t.Errorf("cluster hits = %d/5", hits)
	}
	// A very different flow shape is rejected.
	odd := mkPeriodicFlows("Dev", "cloud.example.com", 60, 1)[0]
	odd.Packets = []flows.PacketMeta{
		{Time: odd.Start, Size: 9000, Dir: flows.DirOutbound},
		{Time: odd.Start.Add(time.Millisecond), Size: 9000, Dir: flows.DirOutbound},
		{Time: odd.Start.Add(2 * time.Millisecond), Size: 9000, Dir: flows.DirOutbound},
		{Time: odd.Start.Add(time.Second), Size: 9000, Dir: flows.DirInbound},
		{Time: odd.Start.Add(2 * time.Second), Size: 9000, Dir: flows.DirInbound},
	}
	if pc.Classify(odd) {
		t.Error("anomalous flow shape accepted by cluster")
	}
}

func TestPeriodicClassifierUnknownGroup(t *testing.T) {
	models, _ := InferPeriodicModels(mkPeriodicFlows("Dev", "a.example.com", 60, 100), DefaultPeriodicConfig())
	pc := NewPeriodicClassifier(models, DefaultPeriodicConfig())
	stranger := mkPeriodicFlows("Dev", "other.example.com", 60, 1)[0]
	if pc.Classify(stranger) {
		t.Error("unknown traffic group classified as periodic")
	}
}

func TestAdaptiveEps(t *testing.T) {
	// Identical points → floor.
	same := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	if eps := adaptiveEps(same, 0.5); eps != 0.5 {
		t.Errorf("identical points eps = %v, want floor 0.5", eps)
	}
	// Spread points → 3× median NN distance.
	spread := [][]float64{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	if eps := adaptiveEps(spread, 0.1); eps != 3 {
		t.Errorf("spread eps = %v, want 3", eps)
	}
	// Single point → floor.
	if eps := adaptiveEps([][]float64{{5}}, 0.7); eps != 0.7 {
		t.Errorf("single point eps = %v", eps)
	}
}
