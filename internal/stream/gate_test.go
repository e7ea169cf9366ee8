package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/netparse"
	"behaviot/internal/testbed"
)

// gateRun is everything observable about one monitor's pass over a
// stream: the callbacks in order and the serialized end state.
type gateRun struct {
	log []string
	// flows are the e.Flow pointers a subscriber that ignores the
	// RecycleFlows contract would keep; flowAt is describeFlow of each
	// taken inside the callback.
	flows    []*flows.Flow
	flowAt   []string
	midState []byte
	endState []byte
	stats    Stats
}

// gateStep is one input to the monitor: a packet, or a Tick when p is nil.
type gateStep struct {
	p    *netparse.Packet
	tick time.Time
}

// randomGroupStream builds a seeded stream in which every device's
// periodic groups run, fall silent for anywhere between seconds and
// half a day (so some gaps cross 5× the period and some do not),
// recover, and fall silent again, with user activity and clock-jumping
// Ticks mixed in. Ticks that overshoot the following packets make those
// packets late, which is how an event time earlier than the cached
// silence deadline gets exercised.
func randomGroupStream(f *streamFixture, seed int64) []gateStep {
	rng := rand.New(rand.NewSource(seed))
	g := testbed.NewGenerator(f.tb, seed)
	base := datasets.DefaultStart.Add(time.Duration(10+seed) * 24 * time.Hour)
	var groups [][]*netparse.Packet
	for _, dev := range f.devices {
		at := base.Add(time.Duration(rng.Intn(600)) * time.Second)
		groups = append(groups, g.BootstrapDNS(dev, at.Add(-time.Minute)))
		for seg := 0; seg < 2+rng.Intn(3); seg++ {
			run := time.Duration(10+rng.Intn(110)) * time.Minute
			groups = append(groups, g.PeriodicWindow(dev, at, at.Add(run)))
			if len(dev.Activities) > 0 && rng.Intn(2) == 0 {
				act := &dev.Activities[rng.Intn(len(dev.Activities))]
				groups = append(groups, g.Activity(dev, act, at.Add(run/2), seg))
			}
			gap := time.Duration(rng.Intn(12*3600)) * time.Second
			at = at.Add(run + gap)
		}
	}
	var steps []gateStep
	for _, p := range testbed.MergePackets(groups...) {
		steps = append(steps, gateStep{p: p})
		if rng.Intn(150) == 0 {
			jump := time.Duration(rng.Intn(3*3600)) * time.Second
			if rng.Intn(2) == 0 {
				jump = time.Duration(rng.Intn(20)) * time.Second
			}
			steps = append(steps, gateStep{tick: p.Timestamp.Add(jump)})
		}
	}
	return steps
}

// describeFlow copies everything observable about a burst into a string.
func describeFlow(f *flows.Flow) string {
	return fmt.Sprintf("%s %s %q %s %s..%s %v", f.Device, f.Tuple, f.Domain, f.Proto,
		f.Start.Format(time.RFC3339Nano), f.End.Format(time.RFC3339Nano), f.Packets)
}

// runGated feeds steps through a fresh monitor over the fixture's
// shared pipeline. With bruteForce set, both gates are knocked out
// before every step, so drain walks pending and checkSilence rescans
// every group on every packet — the reference the gates must be
// indistinguishable from. recycle sets Config.RecycleFlows. Runs share
// f.pipe, so a monitor that wrote its timer anchors there would hand
// the next run a different start; runGated fails if the pipeline's
// bytes move.
func runGated(t *testing.T, f *streamFixture, steps []gateStep, bruteForce, recycle bool) gateRun {
	t.Helper()
	before := core.MarshalPipeline(f.pipe)
	var out gateRun
	m := NewMonitor(f.pipe, f.monitorConfig(), Config{
		RecycleFlows: recycle,
		OnEvent: func(e Event) {
			at := describeFlow(e.Flow)
			out.log = append(out.log, fmt.Sprintf("event %d %s %q %s %v %s",
				e.Class, e.Device, e.Label, e.Time.Format(time.RFC3339Nano), e.Confidence, at))
			out.flows = append(out.flows, e.Flow)
			out.flowAt = append(out.flowAt, at)
		},
		OnDeviation: func(d Deviation) {
			out.log = append(out.log, fmt.Sprintf("deviation %s %s %q %s %v",
				d.Kind, d.Device, d.Detail, d.Time.Format(time.RFC3339Nano), d.Score))
		},
	})
	for i, s := range steps {
		if bruteForce {
			m.nextSilence, m.silenceIdle, m.minPendingEnd = time.Time{}, false, time.Time{}
		}
		if s.p != nil {
			m.Feed(s.p)
		} else {
			m.Tick(s.tick)
		}
		if i == len(steps)/2 {
			out.midState = m.MarshalState()
		}
	}
	out.endState = m.MarshalState()
	m.Close()
	out.stats = m.Stats()
	if !bytes.Equal(core.MarshalPipeline(f.pipe), before) {
		t.Fatal("the monitor wrote to the pipeline it was given")
	}
	return out
}

// sameRun fails unless two passes over one stream were observably the
// same: callbacks in order and MarshalState bytes — timer anchors
// included — mid-stream and at the end.
func sameRun(t *testing.T, seed int64, gotName string, got gateRun, wantName string, want gateRun) {
	t.Helper()
	if len(got.log) != len(want.log) {
		t.Errorf("seed %d: %d callbacks %s, %d %s", seed, len(got.log), gotName, len(want.log), wantName)
	}
	for i := 0; i < len(got.log) && i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("seed %d: callback %d differs:\n %s: %s\n %s: %s", seed, i, gotName, got.log[i], wantName, want.log[i])
		}
	}
	if !bytes.Equal(got.midState, want.midState) {
		t.Errorf("seed %d: mid-stream MarshalState bytes differ", seed)
	}
	if !bytes.Equal(got.endState, want.endState) {
		t.Errorf("seed %d: final MarshalState bytes differ", seed)
	}
}

// TestGatesMatchBruteForceRescan is the property the O(1) gates rest
// on: over randomized periodic / silent / recovering group streams, the
// gated monitor emits exactly the events and deviations — same order,
// same packet, same score — and reaches exactly the MarshalState bytes
// of a monitor that rescans everything on every packet.
func TestGatesMatchBruteForceRescan(t *testing.T) {
	f := getFixture(t)
	f.pipe.Periodic.Reset()
	for seed := int64(1); seed <= 8; seed++ {
		steps := randomGroupStream(f, seed)
		got := runGated(t, f, steps, false, false)
		want := runGated(t, f, steps, true, false)
		if want.stats.Deviations == 0 || want.stats.Periodic == 0 {
			t.Fatalf("seed %d: stream exercises nothing (stats %+v)", seed, want.stats)
		}
		sameRun(t, seed, "gated", got, "brute force", want)
	}
}

// TestDrainGateTracksEarliestPendingEnd pins the drain gate on the case
// the random streams rarely produce: a burst held after one that ends
// later. The gate must follow the smaller End, or the earlier burst
// would sit in pending past its flushAfter.
func TestDrainGateTracksEarliestPendingEnd(t *testing.T) {
	f := getFixture(t)
	idle := datasets.Idle(f.tb, 1, datasets.DefaultStart, 1, f.devices[:1], 0)
	if len(idle) < 3 {
		t.Fatalf("fixture has %d idle flows", len(idle))
	}
	m := NewMonitor(f.pipe, f.monitorConfig(), Config{})
	base := datasets.DefaultStart.Add(time.Hour)
	late, early, later := idle[0], idle[1], idle[2]
	late.End, early.End, later.End = base.Add(10*time.Second), base, base.Add(20*time.Second)
	m.hold([]*flows.Flow{late, early})
	m.clock = base.Add(flushAfter)
	m.drain(false)
	if m.stats.Flows != 1 || len(m.pending) != 1 || m.pending[0] != late {
		t.Fatalf("after first drain: flows=%d pending=%d, want the early burst classified and the late one held",
			m.stats.Flows, len(m.pending))
	}
	// The surviving burst now defines the gate, including for bursts
	// held after it.
	m.hold([]*flows.Flow{later})
	m.clock = base.Add(10*time.Second + flushAfter)
	m.drain(false)
	if m.stats.Flows != 2 || len(m.pending) != 1 || m.pending[0] != later {
		t.Fatalf("after second drain: flows=%d pending=%d, want only the latest burst held", m.stats.Flows, len(m.pending))
	}
}
