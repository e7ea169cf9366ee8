package stream

import (
	"strings"
	"testing"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/pfsm"
	"behaviot/internal/testbed"
)

// streamFixture trains a pipeline on a tiny deployment.
type streamFixture struct {
	tb      *testbed.Testbed
	pipe    *core.Pipeline
	devices []*testbed.DeviceProfile
}

var fx *streamFixture

func getFixture(t *testing.T) *streamFixture {
	t.Helper()
	if fx != nil {
		return fx
	}
	tb := testbed.New()
	devices := []*testbed.DeviceProfile{
		tb.Device("TPLink Plug"), tb.Device("Ring Camera"), tb.Device("Gosund Bulb"),
	}
	idle := datasets.Idle(tb, 1, datasets.DefaultStart, 1, devices, 0)
	labeled := map[string][]*flows.Flow{}
	for _, s := range datasets.Activity(tb, 2, 10, 0) {
		for _, d := range devices {
			if s.Device == d.Name {
				labeled[s.Label] = append(labeled[s.Label], s.Flows...)
			}
		}
	}
	pipe, err := core.Train(idle, labeled, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// System model from a short routine window.
	routine := datasets.Routine(tb, 3, datasets.DefaultStart.Add(7*24*time.Hour),
		datasets.RoutineConfig{Days: 1, RunsPerDay: 15, DirectPerDay: 3})
	var fs []*flows.Flow
	for _, f := range routine.Flows {
		for _, d := range devices {
			if f.Device == d.Name {
				fs = append(fs, f)
			}
		}
	}
	traces := pipe.TrainSystem(pipe.Classify(fs), pfsm.Options{})
	pipe.Calibrate(traces)
	fx = &streamFixture{tb: tb, pipe: pipe, devices: devices}
	return fx
}

func (f *streamFixture) monitorConfig() flows.Config {
	return flows.Config{
		LocalPrefix: f.tb.LocalPrefix,
		DeviceByIP:  f.tb.DeviceByIP(),
	}
}

func TestStreamClassifiesPeriodicTraffic(t *testing.T) {
	f := getFixture(t)
	var events []Event
	f.pipe.Periodic.Reset()
	m := NewMonitor(f.pipe, f.monitorConfig(), Config{
		OnEvent: func(e Event) { events = append(events, e) },
	})

	g := testbed.NewGenerator(f.tb, 5)
	dev := f.tb.Device("TPLink Plug")
	start := datasets.DefaultStart.Add(3 * 24 * time.Hour)
	pkts := testbed.MergePackets(
		g.BootstrapDNS(dev, start.Add(-time.Minute)),
		g.PeriodicWindow(dev, start, start.Add(2*time.Hour)),
	)
	for _, p := range pkts {
		m.Feed(p)
	}
	m.Close()

	st := m.Stats()
	if st.Packets != int64(len(pkts)) {
		t.Errorf("packets = %d, want %d", st.Packets, len(pkts))
	}
	if st.Flows == 0 || len(events) == 0 {
		t.Fatal("no flows/events")
	}
	periodicFrac := float64(st.Periodic) / float64(st.Flows)
	if periodicFrac < 0.9 {
		t.Errorf("periodic fraction = %.3f (periodic=%d flows=%d)", periodicFrac, st.Periodic, st.Flows)
	}
	if st.User != 0 {
		t.Errorf("idle stream produced %d user events", st.User)
	}
}

func TestStreamDetectsUserEventsAndTraces(t *testing.T) {
	f := getFixture(t)
	var userEvents []Event
	f.pipe.Periodic.Reset()
	m := NewMonitor(f.pipe, f.monitorConfig(), Config{
		OnEvent: func(e Event) {
			if e.Class == core.EventUser {
				userEvents = append(userEvents, e)
			}
		},
	})

	g := testbed.NewGenerator(f.tb, 6)
	plug := f.tb.Device("TPLink Plug")
	start := datasets.DefaultStart.Add(4 * 24 * time.Hour)
	stream := testbed.MergePackets(
		g.BootstrapDNS(plug, start.Add(-time.Minute)),
		g.Activity(plug, plug.Activity("on"), start.Add(time.Hour), 0),
		g.Activity(plug, plug.Activity("off"), start.Add(90*time.Minute), 1),
	)
	for _, p := range stream {
		m.Feed(p)
	}
	m.Close()

	if len(userEvents) < 2 {
		t.Fatalf("user events = %d, want >= 2", len(userEvents))
	}
	labels := map[string]bool{}
	for _, e := range userEvents {
		labels[e.Label] = true
	}
	if !labels["TPLink Plug:on"] || !labels["TPLink Plug:off"] {
		t.Errorf("labels = %v", labels)
	}
	if m.Stats().Traces < 2 {
		t.Errorf("traces = %d, want >= 2 (events 30 min apart)", m.Stats().Traces)
	}
}

// TestStreamTraceGapFollowsPipeline pins that the monitor cuts
// user-event traces at the gap the pipeline was trained with, as
// Pipeline.EventTraces does: with a 30 s gap, two user events 45 s
// apart are two traces.
func TestStreamTraceGapFollowsPipeline(t *testing.T) {
	f := getFixture(t)
	pipe := f.pipe.Fork()
	pipe.TraceGap = 30 * time.Second
	pipe.Periodic.Reset()
	var userEvents []Event
	m := NewMonitor(pipe, f.monitorConfig(), Config{
		OnEvent: func(e Event) {
			if e.Class == core.EventUser {
				userEvents = append(userEvents, e)
			}
		},
	})

	g := testbed.NewGenerator(f.tb, 6)
	plug := f.tb.Device("TPLink Plug")
	at := datasets.DefaultStart.Add(4*24*time.Hour + time.Hour)
	for _, p := range testbed.MergePackets(
		g.BootstrapDNS(plug, at.Add(-time.Minute)),
		g.Activity(plug, plug.Activity("on"), at, 0),
		g.Activity(plug, plug.Activity("off"), at.Add(45*time.Second), 1),
	) {
		m.Feed(p)
	}
	m.Close()

	if len(userEvents) != 2 {
		t.Fatalf("user events = %d, want 2", len(userEvents))
	}
	want := len(pipe.EventTraces(userEvents))
	if want != 2 {
		t.Fatalf("EventTraces gives %d traces, want 2", want)
	}
	if got := m.Stats().Traces; got != int64(want) {
		t.Errorf("monitor closed %d traces, EventTraces gives %d", got, want)
	}
}

func TestStreamSilenceAlarm(t *testing.T) {
	f := getFixture(t)
	var devs []Deviation
	f.pipe.Periodic.Reset()
	m := NewMonitor(f.pipe, f.monitorConfig(), Config{
		OnDeviation: func(d Deviation) { devs = append(devs, d) },
	})

	g := testbed.NewGenerator(f.tb, 7)
	dev := f.tb.Device("TPLink Plug")
	start := datasets.DefaultStart.Add(5 * 24 * time.Hour)
	pkts := testbed.MergePackets(
		g.BootstrapDNS(dev, start.Add(-time.Minute)),
		g.PeriodicWindow(dev, start, start.Add(time.Hour)),
	)
	for _, p := range pkts {
		m.Feed(p)
	}
	// The device dies: advance stream time far past 5× every period.
	m.Tick(start.Add(30 * time.Hour))

	silent := 0
	for _, d := range devs {
		if d.Kind == core.DevPeriodic && strings.Contains(d.Detail, "silent") {
			silent++
		}
	}
	if silent == 0 {
		t.Fatal("no silence alarms after device death")
	}
	// Alarms must not repeat while the group stays silent.
	before := len(devs)
	m.Tick(start.Add(40 * time.Hour))
	if len(devs) != before {
		t.Errorf("silence alarms repeated: %d → %d", before, len(devs))
	}
}

func TestStreamSilenceRearmsAfterRecovery(t *testing.T) {
	f := getFixture(t)
	var devs []Deviation
	f.pipe.Periodic.Reset()
	m := NewMonitor(f.pipe, f.monitorConfig(), Config{
		OnDeviation: func(d Deviation) { devs = append(devs, d) },
	})

	g := testbed.NewGenerator(f.tb, 8)
	dev := f.tb.Device("TPLink Plug")
	start := datasets.DefaultStart.Add(6 * 24 * time.Hour)
	feed := func(from, to time.Time) {
		for _, p := range testbed.MergePackets(
			g.BootstrapDNS(dev, from.Add(-time.Minute)),
			g.PeriodicWindow(dev, from, to),
		) {
			m.Feed(p)
		}
	}
	feed(start, start.Add(time.Hour))
	m.Tick(start.Add(20 * time.Hour)) // outage → alarms
	first := len(devs)
	if first == 0 {
		t.Fatal("no alarms in first outage")
	}
	// Recovery: traffic resumes, then dies again → new alarms.
	feed(start.Add(20*time.Hour), start.Add(21*time.Hour))
	m.Tick(start.Add(45 * time.Hour))
	if len(devs) <= first {
		t.Errorf("no re-armed alarms after recovery: %d → %d", first, len(devs))
	}
}

func TestStreamStatsSnapshot(t *testing.T) {
	f := getFixture(t)
	m := NewMonitor(f.pipe, f.monitorConfig(), Config{})
	now := datasets.DefaultStart.Add(8 * 24 * time.Hour)
	m.Tick(now)
	if !m.Stats().StreamTime.Equal(now) {
		t.Errorf("stream time = %v", m.Stats().StreamTime)
	}
	if m.Stats().Packets != 0 {
		t.Error("phantom packets")
	}
}
