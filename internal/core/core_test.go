package core

import (
	"math"
	"testing"
	"time"

	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/pfsm"
	"behaviot/internal/testbed"
)

// testFixture builds a small but complete trained pipeline shared by the
// tests in this file: idle data from a few devices, labeled activities,
// and a routine dataset for system modeling.
type testFixture struct {
	tb       *testbed.Testbed
	pipe     *Pipeline
	idle     []*flows.Flow
	labeled  map[string][]*flows.Flow
	routine  *datasets.RoutineDataset
	traces   []pfsm.Trace
	testIdle []*flows.Flow
}

var fixture *testFixture

func getFixture(t *testing.T) *testFixture {
	t.Helper()
	if fixture != nil {
		return fixture
	}
	tb := testbed.New()
	devs := []*testbed.DeviceProfile{
		tb.Device("TPLink Plug"), tb.Device("Wemo Plug"),
		tb.Device("Gosund Bulb"), tb.Device("Ring Camera"),
		tb.Device("Echo Spot"),
	}
	idle := datasets.Idle(tb, 1, datasets.DefaultStart, 2, devs, 0)
	testIdle := datasets.Idle(tb, 99, datasets.DefaultStart.Add(5*24*time.Hour), 1, devs, 0)

	samples := filterSamples(datasets.Activity(tb, 2, 20, 0), devs)
	labeled := datasets.LabeledFlows(samples)

	cfg := DefaultConfig()
	pipe, err := Train(idle, labeled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	routine := datasets.Routine(tb, 3, datasets.DefaultStart.Add(10*24*time.Hour),
		datasets.RoutineConfig{Days: 3, RunsPerDay: 30, DirectPerDay: 4})
	events := pipe.Classify(routine.Flows)
	traces := pipe.TrainSystem(events, pfsm.Options{})
	pipe.Calibrate(traces)

	fixture = &testFixture{
		tb: tb, pipe: pipe, idle: idle, labeled: labeled,
		routine: routine, traces: traces, testIdle: testIdle,
	}
	return fixture
}

func filterSamples(samples []datasets.ActivitySample, devs []*testbed.DeviceProfile) []datasets.ActivitySample {
	keep := map[string]bool{}
	for _, d := range devs {
		keep[d.Name] = true
	}
	var out []datasets.ActivitySample
	for _, s := range samples {
		if keep[s.Device] {
			out = append(out, s)
		}
	}
	return out
}

func TestPeriodicModelInference(t *testing.T) {
	fx := getFixture(t)
	models := fx.pipe.Periodic.Models()
	if len(models) == 0 {
		t.Fatal("no periodic models inferred")
	}
	// The TP-Link Plug's TCP heartbeat group should be periodic with a
	// period from the spec menu.
	dev := fx.tb.Device("TPLink Plug")
	var appSpec *testbed.PeriodicSpec
	for i := range dev.Periodic {
		if dev.Periodic[i].Proto == "TCP" {
			appSpec = &dev.Periodic[i]
			break
		}
	}
	found := false
	for key, m := range models {
		if key.Device == "TPLink Plug" && key.Domain == appSpec.Domain && key.Proto == "TCP" {
			found = true
			want := appSpec.Period.Seconds()
			if math.Abs(m.Period-want)/want > 0.15 {
				t.Errorf("period = %.1f, want ~%.1f", m.Period, want)
			}
		}
	}
	if !found {
		t.Errorf("no periodic model for TPLink Plug %s", appSpec.Domain)
	}
}

func TestIdleCoverageHigh(t *testing.T) {
	// Table 2: ~99.8% of idle flows exhibit periodicity; classification
	// labels ≥99% of them as periodic events.
	fx := getFixture(t)
	fx.pipe.Periodic.Reset()
	events := fx.pipe.Classify(fx.testIdle)
	counts := map[EventClass]int{}
	for _, e := range events {
		counts[e.Class]++
	}
	total := len(events)
	periodicFrac := float64(counts[EventPeriodic]) / float64(total)
	if periodicFrac < 0.95 {
		t.Errorf("periodic fraction on held-out idle = %.3f, want >= 0.95", periodicFrac)
	}
	// False positives: idle flows classified as user events (paper: 0.09%).
	fpr := float64(counts[EventUser]) / float64(total)
	if fpr > 0.02 {
		t.Errorf("idle FPR = %.4f, want <= 0.02", fpr)
	}
	t.Logf("idle: periodic=%.4f user=%.4f aperiodic=%.4f (n=%d)",
		periodicFrac, fpr, float64(counts[EventAperiodic])/float64(total), total)
}

func TestUserEventAccuracy(t *testing.T) {
	// Table 2: user event accuracy ~98.9% on held-out repetitions.
	fx := getFixture(t)
	tb := fx.tb
	devs := []*testbed.DeviceProfile{
		tb.Device("TPLink Plug"), tb.Device("Wemo Plug"),
		tb.Device("Gosund Bulb"), tb.Device("Ring Camera"),
		tb.Device("Echo Spot"),
	}
	heldOut := filterSamples(datasets.Activity(tb, 77, 4, 0), devs)
	correct, total := 0, 0
	for _, s := range heldOut {
		// The sample's main activity flow is the largest TCP flow.
		f := biggestTCP(s.Flows)
		if f == nil {
			continue
		}
		total++
		label, _, ok := fx.pipe.UserAction.Classify(f)
		if ok && label == s.Label {
			correct++
		}
	}
	if total == 0 {
		t.Fatal("no held-out samples")
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Errorf("user event accuracy = %.3f (n=%d), want >= 0.9", acc, total)
	}
	t.Logf("user event accuracy = %.3f (n=%d)", acc, total)
}

func biggestTCP(fs []*flows.Flow) *flows.Flow {
	var best *flows.Flow
	for _, f := range fs {
		if f.Proto != "TCP" {
			continue
		}
		if best == nil || f.Bytes() > best.Bytes() {
			best = f
		}
	}
	return best
}

func TestClassifyDisjointPartition(t *testing.T) {
	fx := getFixture(t)
	fx.pipe.Periodic.Reset()
	events := fx.pipe.Classify(fx.testIdle)
	if len(events) != len(fx.testIdle) {
		t.Fatalf("events = %d, flows = %d: partition must be total", len(events), len(fx.testIdle))
	}
	for _, e := range events {
		if e.Flow == nil {
			t.Fatal("event without flow")
		}
	}
}

func TestEventTracesRespectGap(t *testing.T) {
	fx := getFixture(t)
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	mkEvent := func(label string, at time.Time) Event {
		return Event{Class: EventUser, Label: label, Time: at, Device: deviceOfLabel(label)}
	}
	events := []Event{
		mkEvent("a:x", base),
		mkEvent("b:y", base.Add(30*time.Second)),
		mkEvent("c:z", base.Add(5*time.Minute)), // new trace
		mkEvent("d:w", base.Add(5*time.Minute+59*time.Second)),
	}
	traces := fx.pipe.EventTraces(events)
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	if len(traces[0]) != 2 || len(traces[1]) != 2 {
		t.Errorf("trace lengths = %d,%d", len(traces[0]), len(traces[1]))
	}
}

func TestSystemModelAcceptsRoutineTraces(t *testing.T) {
	fx := getFixture(t)
	if fx.pipe.System == nil {
		t.Fatal("no system model")
	}
	for i, tr := range fx.traces {
		if !fx.pipe.System.Accepts(tr) {
			t.Errorf("training trace %d rejected: %v", i, tr)
		}
	}
	// Compactness: states ≤ distinct labels + refinement splits.
	labels := map[string]bool{}
	for _, tr := range fx.traces {
		for _, l := range tr {
			labels[l] = true
		}
	}
	if fx.pipe.System.NumStates() > 2*len(labels)+10 {
		t.Errorf("states = %d for %d labels", fx.pipe.System.NumStates(), len(labels))
	}
}

func TestPeriodicDeviationMetric(t *testing.T) {
	// Zero deviation when on schedule; ln(5) when T0 = 5T.
	if got := PeriodicDeviationMetric(100, 100); got != 0 {
		t.Errorf("on-schedule = %v", got)
	}
	if got := PeriodicDeviationMetric(500, 100); math.Abs(got-math.Log(5)) > 1e-12 {
		t.Errorf("5T = %v, want ln(5)", got)
	}
	if got := PeriodicDeviationMetric(100, 0); got != 0 {
		t.Errorf("zero period = %v", got)
	}
	// Early events also deviate.
	if got := PeriodicDeviationMetric(10, 100); got <= 0 {
		t.Errorf("early = %v, want > 0", got)
	}
}

func TestShortTermMetric(t *testing.T) {
	if got := ShortTermMetric(1); got != 1 {
		t.Errorf("P=1 → %v, want 1", got)
	}
	if got := ShortTermMetric(0.01); got <= 1 {
		t.Errorf("P=0.01 → %v, want > 1", got)
	}
	if !math.IsInf(ShortTermMetric(0), 1) {
		t.Error("P=0 should map to +Inf")
	}
	// Monotone decreasing in P.
	if ShortTermMetric(0.5) >= ShortTermMetric(0.1) {
		t.Error("metric should grow as P shrinks")
	}
}

func TestCalibrateAndThresholds(t *testing.T) {
	fx := getFixture(t)
	b := fx.pipe.Baseline
	if b == nil {
		t.Fatal("no baseline")
	}
	if b.ShortTermThreshold() <= b.ShortTermMean {
		t.Error("threshold must exceed mean")
	}
	if math.Abs(b.LongTermZ-1.96) > 0.01 {
		t.Errorf("LongTermZ = %v, want ~1.96", b.LongTermZ)
	}
	if math.Abs(b.PeriodicThreshold-math.Log(5)) > 1e-9 {
		t.Errorf("PeriodicThreshold = %v, want ln(5)", b.PeriodicThreshold)
	}
}

func TestTrainingTracesMostlyBelowShortTermThreshold(t *testing.T) {
	fx := getFixture(t)
	devs := fx.pipe.ShortTermDeviations(fx.traces, time.Now())
	frac := float64(len(devs)) / float64(len(fx.traces))
	if frac > 0.05 {
		t.Errorf("%.1f%% of training traces flagged (want <= 5%% by μ+3σ construction)", frac*100)
	}
}

func TestInjectedEventsRaiseShortTermMetric(t *testing.T) {
	// Fig 4b: distributions shift right as injected deviations grow.
	fx := getFixture(t)
	meanScore := func(traces []pfsm.Trace) float64 {
		var sum float64
		for _, tr := range traces {
			sum += ShortTermMetric(fx.pipe.System.TraceProb(tr))
		}
		return sum / float64(len(traces))
	}
	base := meanScore(fx.traces)
	prev := base
	for k := 1; k <= 5; k++ {
		perturbed := datasets.InjectNewEvents(fx.traces, k, int64(k))
		m := meanScore(perturbed)
		if m <= prev {
			t.Errorf("k=%d: mean score %v not above k=%d score %v", k, m, k-1, prev)
		}
		prev = m
	}
	t.Logf("base=%.2f k5=%.2f", base, prev)
}

func TestDuplicatedTracesRaiseLongTermDeviations(t *testing.T) {
	// Fig 4c: duplicating traces shifts transition frequencies.
	fx := getFixture(t)
	at := time.Now()
	base := fx.pipe.LongTermDeviations(fx.traces, at)
	dup := fx.pipe.LongTermDeviations(datasets.DuplicateTraces(fx.traces, 5, 9), at)
	if len(dup) <= len(base) {
		t.Errorf("duplication: %d deviations vs %d baseline", len(dup), len(base))
	}
}

func TestEventLossDetected(t *testing.T) {
	// §5.3: removing the Gosund Bulb from the Ring Camera routine causes
	// short- or long-term deviations.
	fx := getFixture(t)
	at := time.Now()
	lost := datasets.DropDeviceEvents(fx.traces, "Gosund Bulb")
	short := fx.pipe.ShortTermDeviations(lost, at)
	long := fx.pipe.LongTermDeviations(lost, at)
	if len(short)+len(long) == 0 {
		t.Error("event loss not detected by either PFSM metric")
	}
}

func TestMisactivationDetected(t *testing.T) {
	// §5.3: Echo Spot activating nine times in a row.
	fx := getFixture(t)
	at := time.Now()
	voiceLabel := "Echo Spot:voice"
	stormy := datasets.RepeatEventInTrace(fx.traces, voiceLabel, 9)
	short := fx.pipe.ShortTermDeviations(stormy, at)
	long := fx.pipe.LongTermDeviations(stormy, at)
	if len(short)+len(long) == 0 {
		t.Error("misactivation not detected")
	}
}

func TestPeriodicDeviationsOnOutage(t *testing.T) {
	// Cut the last 6 hours of a device's idle traffic: the count-up timer
	// at window end must flag the silent groups.
	fx := getFixture(t)
	fx.pipe.Periodic.Reset()
	cutoff := datasets.DefaultStart.Add(5*24*time.Hour + 18*time.Hour)
	var truncated []*flows.Flow
	for _, f := range fx.testIdle {
		if f.Start.Before(cutoff) {
			truncated = append(truncated, f)
		}
	}
	if len(truncated) == len(fx.testIdle) {
		t.Skip("cutoff removed nothing")
	}
	events := fx.pipe.Classify(truncated)
	windowEnd := datasets.DefaultStart.Add(6 * 24 * time.Hour)
	devs := fx.pipe.PeriodicDeviations(events, windowEnd)
	if len(devs) == 0 {
		t.Error("outage not flagged by periodic deviation metric")
	}
	silent := 0
	for _, d := range devs {
		if d.Kind != DevPeriodic {
			t.Errorf("wrong kind %v", d.Kind)
		}
		if len(d.Detail) > 0 && d.Score > math.Log(5) {
			silent++
		}
	}
	if silent == 0 {
		t.Error("no silent-group deviations above threshold")
	}
}

func TestPeriodicNoDeviationOnCleanIdle(t *testing.T) {
	fx := getFixture(t)
	fx.pipe.Periodic.Reset()
	events := fx.pipe.Classify(fx.testIdle)
	windowEnd := datasets.DefaultStart.Add(6 * 24 * time.Hour)
	devs := fx.pipe.PeriodicDeviations(events, windowEnd)
	// Clean traffic: very few deviations (some long-period groups near
	// the window edge are tolerable).
	if len(devs) > 10 {
		t.Errorf("clean idle produced %d periodic deviations", len(devs))
	}
}

// TestPeriodicScanLeavesPipelineUnwritten pins that a periodic-deviation
// scan only reads the pipeline: on a PFSM that is trained but not
// calibrated, the scan must not install a zero baseline that
// ShortTermDeviations would then score every trace against.
func TestPeriodicScanLeavesPipelineUnwritten(t *testing.T) {
	fx := getFixture(t)
	p := &Pipeline{Periodic: fx.pipe.Periodic.Fork(), UserAction: fx.pipe.UserAction, TraceGap: fx.pipe.TraceGap}
	events := p.Classify(fx.routine.Flows)
	traces := p.TrainSystem(events, pfsm.Options{})
	snap := MarshalPipeline(p)
	p.PeriodicDeviations(events, fx.routine.End)
	if p.Baseline != nil {
		t.Errorf("the scan installed a baseline: %+v", *p.Baseline)
	}
	if got := MarshalPipeline(p); string(got) != string(snap) {
		t.Error("the scan changed what MarshalPipeline emits")
	}
	if devs := p.ShortTermDeviations(traces, fx.routine.End); len(devs) != 0 {
		t.Errorf("uncalibrated pipeline flagged %d of %d traces after a periodic scan", len(devs), len(traces))
	}
}

func TestDeviationKindString(t *testing.T) {
	if DevPeriodic.String() != "periodic-event" ||
		DevShortTerm.String() != "short-term" ||
		DevLongTerm.String() != "long-term" {
		t.Error("kind names wrong")
	}
	if EventPeriodic.String() != "periodic" || EventUser.String() != "user" ||
		EventAperiodic.String() != "aperiodic" {
		t.Error("class names wrong")
	}
}

func TestUserEventLabel(t *testing.T) {
	if deviceOfLabel("TPLink Plug:on") != "TPLink Plug" {
		t.Error("deviceOfLabel wrong")
	}
	if deviceOfLabel("nolabel") != "nolabel" {
		t.Error("deviceOfLabel without colon wrong")
	}
}

func TestDestinationAnalysis(t *testing.T) {
	fx := getFixture(t)
	fx.pipe.Periodic.Reset()
	events := fx.pipe.Classify(fx.testIdle)
	info := map[string]DeviceInfo{}
	for _, d := range fx.tb.Devices {
		info[d.Name] = DeviceInfo{Vendor: d.Vendor, Category: string(d.Category)}
	}
	table := DestinationAnalysis(events, info)
	per := table[EventPeriodic]
	if len(per) == 0 {
		t.Fatal("no periodic destination rows")
	}
	total := PartyBreakdown{}
	for _, b := range per {
		total.First += b.First
		total.Support += b.Support
		total.Third += b.Third
	}
	if total.Total() == 0 {
		t.Fatal("no destinations counted")
	}
	if total.First == 0 || total.Support == 0 {
		t.Errorf("party breakdown degenerate: %+v", total)
	}
	t.Logf("periodic destinations: %+v", total)
}

func TestDistinctDestinations(t *testing.T) {
	fx := getFixture(t)
	fx.pipe.Periodic.Reset()
	events := fx.pipe.Classify(fx.testIdle)
	doms := DistinctDestinations(events, EventPeriodic)
	if len(doms) == 0 {
		t.Fatal("no destinations")
	}
	for i := 1; i < len(doms); i++ {
		if doms[i] <= doms[i-1] {
			t.Fatal("not sorted/deduped")
		}
	}
}
