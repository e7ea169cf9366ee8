package stream

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/netparse"
	"behaviot/internal/testbed"
)

// eventLine renders an event the way equivalence is judged: everything a
// subscriber observes.
func eventLine(e Event) string {
	return fmt.Sprintf("%v %s %s %s %.17g", e.Class, e.Device, e.Label,
		e.Time.Format(time.RFC3339Nano), e.Confidence)
}

func deviationLine(d Deviation) string {
	return fmt.Sprintf("%v %s %s %s %.17g", d.Kind, d.Device, d.Detail,
		d.Time.Format(time.RFC3339Nano), d.Score)
}

// TestMonitorRestoreEquivalence is the heart of hot recovery: a monitor
// checkpointed mid-stream and restored into a fresh process must emit
// exactly the same events and deviations for the rest of the stream as
// the uninterrupted monitor, and end in byte-identical state.
func TestMonitorRestoreEquivalence(t *testing.T) {
	f := getFixture(t)
	var contEvents, contDevs []string
	f.pipe.Periodic.Reset()
	mA := NewMonitor(f.pipe, f.monitorConfig(), Config{
		OnEvent:     func(e Event) { contEvents = append(contEvents, eventLine(e)) },
		OnDeviation: func(d Deviation) { contDevs = append(contDevs, deviationLine(d)) },
	})

	g := testbed.NewGenerator(f.tb, 11)
	plug := f.tb.Device("TPLink Plug")
	cam := f.tb.Device("Ring Camera")
	start := datasets.DefaultStart.Add(9 * 24 * time.Hour)
	pkts := testbed.MergePackets(
		g.BootstrapDNS(plug, start.Add(-time.Minute)),
		g.BootstrapDNS(cam, start.Add(-50*time.Second)),
		g.PeriodicWindow(plug, start, start.Add(3*time.Hour)),
		g.PeriodicWindow(cam, start, start.Add(90*time.Minute)), // dies → silence alarms later
		g.Activity(plug, plug.Activity("on"), start.Add(30*time.Minute), 0),
		g.Activity(plug, plug.Activity("off"), start.Add(40*time.Minute), 1),
		g.Activity(plug, plug.Activity("on"), start.Add(2*time.Hour), 2),
	)
	if len(pkts) < 100 {
		t.Fatalf("only %d packets generated", len(pkts))
	}
	split := len(pkts) / 2

	// Phase 1: only the uninterrupted monitor sees the prefix. The
	// checkpoint cut is deliberately mid-stream: open flows, an open
	// trace window, and live timer anchors must all survive.
	for _, p := range pkts[:split] {
		mA.Feed(p)
	}
	monSnap := mA.MarshalState()

	// "Restart": the trained models come back unchanged from their own
	// snapshot bytes; everything the monitor wrote, timer anchors
	// included, comes back from monSnap alone.
	restoredPipe, err := core.UnmarshalPipeline(core.MarshalPipeline(f.pipe))
	if err != nil {
		t.Fatalf("UnmarshalPipeline: %v", err)
	}
	var contEventsB, contDevsB []string
	mB := NewMonitor(restoredPipe, f.monitorConfig(), Config{
		OnEvent:     func(e Event) { contEventsB = append(contEventsB, eventLine(e)) },
		OnDeviation: func(d Deviation) { contDevsB = append(contDevsB, deviationLine(d)) },
	})
	if err := mB.UnmarshalState(monSnap); err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}

	// The restored monitor's state must re-marshal byte-identically.
	if !bytes.Equal(mB.MarshalState(), monSnap) {
		t.Fatal("restored monitor state differs from checkpoint bytes")
	}

	// Phase 2: both monitors consume the suffix, then a long silence
	// tick (exercising the sorted alarm path) and Close.
	mark := len(contEvents)
	markD := len(contDevs)
	for _, p := range pkts[split:] {
		mA.Feed(p)
		mB.Feed(p)
	}
	deadline := start.Add(24 * time.Hour)
	mA.Tick(deadline)
	mB.Tick(deadline)
	mA.Close()
	mB.Close()

	tailEvents := contEvents[mark:]
	tailDevs := contDevs[markD:]
	if len(tailEvents) == 0 {
		t.Fatal("no events in continuation phase; test stream too small")
	}
	if len(tailEvents) != len(contEventsB) {
		t.Fatalf("continuation events: %d vs %d", len(tailEvents), len(contEventsB))
	}
	for i := range tailEvents {
		if tailEvents[i] != contEventsB[i] {
			t.Fatalf("event %d differs:\n  uninterrupted: %s\n  resumed:       %s",
				i, tailEvents[i], contEventsB[i])
		}
	}
	if len(tailDevs) != len(contDevsB) {
		t.Fatalf("continuation deviations: %d vs %d\nA: %v\nB: %v",
			len(tailDevs), len(contDevsB), tailDevs, contDevsB)
	}
	for i := range tailDevs {
		if tailDevs[i] != contDevsB[i] {
			t.Fatalf("deviation %d differs:\n  uninterrupted: %s\n  resumed:       %s",
				i, tailDevs[i], contDevsB[i])
		}
	}

	// Final streaming state must be byte-identical too: nothing drifted.
	if !bytes.Equal(mA.MarshalState(), mB.MarshalState()) {
		t.Fatal("final monitor states diverged after identical suffix")
	}
	sa, sb := mA.Stats(), mB.Stats()
	if sa.Flows != sb.Flows || sa.Periodic != sb.Periodic || sa.User != sb.User ||
		sa.Aperiodic != sb.Aperiodic || sa.Deviations != sb.Deviations || sa.Traces != sb.Traces {
		t.Fatalf("final stats diverged:\n  A: %+v\n  B: %+v", sa, sb)
	}
}

func TestMonitorSnapshotRejectsCorruption(t *testing.T) {
	f := getFixture(t)
	m := NewMonitor(f.pipe, f.monitorConfig(), Config{})
	g := testbed.NewGenerator(f.tb, 12)
	dev := f.tb.Device("TPLink Plug")
	start := datasets.DefaultStart.Add(11 * 24 * time.Hour)
	for _, p := range testbed.MergePackets(
		g.BootstrapDNS(dev, start.Add(-time.Minute)),
		g.PeriodicWindow(dev, start, start.Add(time.Hour)),
	) {
		m.Feed(p)
	}
	snap := m.MarshalState()

	for _, n := range []int{0, 1, len(snap) / 3, len(snap) - 1} {
		fresh := NewMonitor(f.pipe, f.monitorConfig(), Config{})
		if err := fresh.UnmarshalState(snap[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	fresh := NewMonitor(f.pipe, f.monitorConfig(), Config{})
	if err := fresh.UnmarshalState(append(append([]byte(nil), snap...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestQueueFlushQuiesces(t *testing.T) {
	var sunk []int
	q := NewBatchQueue(64, 1, func(ps []*netparse.Packet) { sunk = append(sunk, ps[0].WireLen) })
	defer q.Close()
	for i := 0; i < 50; i++ {
		q.Feed(&netparse.Packet{WireLen: i})
	}
	q.Flush()
	if len(sunk) != 50 {
		t.Fatalf("after Flush sink saw %d packets, want 50", len(sunk))
	}
	for i, v := range sunk {
		if v != i {
			t.Fatalf("packet order broken at %d: got %d", i, v)
		}
	}
	// Flush after more feeds still quiesces; flush on closed queue is a
	// no-op, not a hang.
	q.Feed(&netparse.Packet{WireLen: 50})
	q.Flush()
	if len(sunk) != 51 {
		t.Fatalf("second Flush: %d packets, want 51", len(sunk))
	}
	q.Close()
	q.Flush()
}
