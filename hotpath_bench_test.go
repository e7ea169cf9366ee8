package behaviot

// Hot-path benchmarks for the ingest pipeline's stages: pcap record
// read, wire decode and flow assembly. These are the benchmarks the CI
// alloc/throughput ratchet tracks (make bench-ratchet): steady state
// must stay at 0 allocs/op, and each reports pkts/s so throughput
// regressions are visible in the same artifact. (The composed path the
// daemon runs is pinned by listener.TestInlineIngestAllocatesNothing
// and measured by bench/'s fleet.tenant.ingest_ns_per_rec.)
//
// The packet stream wraps when a pass exhausts it; timestamps are
// rebased forward on each wrap so stream time stays monotonic and the
// assembler's burst logic behaves exactly as on an endless capture.

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/netparse"
	"behaviot/internal/pcapio"
	"behaviot/internal/testbed"
)

var (
	hotOnce  sync.Once
	hotPkts  []*netparse.Packet // merged synthetic stream, chronological
	hotTimes []time.Time        // original timestamps (rebasing base)
	hotRecs  []pcapio.Record    // the stream as encoded wire records
	hotPcap  []byte             // the stream as a complete pcap file
	hotAcfg  flows.Config
	hotSpan  time.Duration // stream span + burst slack, the wrap rebase step
)

// hotData builds the shared benchmark corpus once: a two-hour periodic
// window for four testbed devices, with their bootstrap DNS, both as
// decoded packets and as a serialized capture.
func hotData(b *testing.B) {
	b.Helper()
	hotOnce.Do(func() {
		tb := testbed.New()
		devices := []*testbed.DeviceProfile{
			tb.Device("TPLink Plug"), tb.Device("Ring Camera"),
			tb.Device("Gosund Bulb"), tb.Device("Echo Spot"),
		}
		g := testbed.NewGenerator(tb, 7)
		start := datasets.DefaultStart
		var streams [][]*netparse.Packet
		for _, d := range devices {
			streams = append(streams, g.BootstrapDNS(d, start.Add(-time.Minute)))
			streams = append(streams, g.PeriodicWindow(d, start, start.Add(2*time.Hour)))
		}
		hotPkts = testbed.MergePackets(streams...)
		hotTimes = make([]time.Time, len(hotPkts))
		for i, p := range hotPkts {
			hotTimes[i] = p.Timestamp
		}
		var err error
		hotRecs, err = datasets.EncodePackets(hotPkts)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := datasets.WritePcap(&buf, hotPkts); err != nil {
			panic(err)
		}
		hotPcap = buf.Bytes()
		hotAcfg = flows.Config{LocalPrefix: tb.LocalPrefix, DeviceByIP: tb.DeviceByIP()}
		hotSpan = hotTimes[len(hotTimes)-1].Sub(hotTimes[0]) + 2*time.Second
	})
}

// BenchmarkHotPathReadRecord measures the pcap record read into one
// reused buffer (pcapio.ReadPacketInto); one op = one record.
func BenchmarkHotPathReadRecord(b *testing.B) {
	hotData(b)
	buf := make([]byte, 0, 2048)
	br := bytes.NewReader(hotPcap)
	var r *pcapio.Reader
	reset := func() {
		br.Reset(hotPcap)
		var err error
		r, err = pcapio.NewReader(br)
		if err != nil {
			b.Fatal(err)
		}
	}
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, data, err := r.ReadPacketInto(buf)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				b.Fatal(err)
			}
			reset()
			if _, data, err = r.ReadPacketInto(buf); err != nil {
				b.Fatal(err)
			}
		}
		if cap(data) > cap(buf) {
			buf = data[:cap(data)]
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkHotPathDecode measures the in-place wire decode
// (netparse.DecodeInto on one reused packet); one op = one frame.
func BenchmarkHotPathDecode(b *testing.B) {
	hotData(b)
	p := new(netparse.Packet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := netparse.DecodeInto(p, hotRecs[i%len(hotRecs)].Data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkHotPathAssemble measures flow assembly with recycled flow
// storage and the gated flush; one op = one packet through the
// assembler.
func BenchmarkHotPathAssemble(b *testing.B) {
	hotData(b)
	a := flows.NewAssembler(hotAcfg)
	feed := func(i int, offset time.Duration) {
		j := i % len(hotPkts)
		p := hotPkts[j]
		p.Timestamp = hotTimes[j].Add(offset)
		a.Add(p)
		for _, f := range a.FlushClosed(p.Timestamp) {
			a.Recycle(f)
		}
	}
	// One untimed pass warms the freelist, the Packets capacities, the
	// resolver and its LRU.
	for i := range hotPkts {
		feed(i, 0)
	}
	var offset time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(hotPkts) == 0 {
			offset += hotSpan
		}
		feed(i, offset)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}
