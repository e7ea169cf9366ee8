package core

import (
	"sort"
	"time"

	"behaviot/internal/flows"
	"behaviot/internal/pfsm"
)

// Pipeline bundles the trained behavior models and classifies traffic into
// the three disjoint event classes (paper Fig. 1).
type Pipeline struct {
	Periodic   *PeriodicClassifier
	UserAction *UserActionModels
	// System is the PFSM system behavior model; nil until TrainSystem.
	System *pfsm.Model
	// TraceGap splits user-event sequences into traces (default 1 min).
	TraceGap time.Duration
	// Baseline holds deviation baselines once Calibrate has run.
	Baseline *Baseline
}

// Config bundles all pipeline configuration.
type Config struct {
	Periodic   PeriodicConfig
	UserAction UserActionConfig
	TraceGap   time.Duration
}

// DefaultConfig returns the paper's parameterization: 1 s burst threshold
// (in the flow assembler), 1 min trace gap, DFT+autocorrelation periodic
// mining, timer+DBSCAN periodic classification, binary RF user models.
func DefaultConfig() Config {
	return Config{
		Periodic:   DefaultPeriodicConfig(),
		UserAction: DefaultUserActionConfig(),
		TraceGap:   time.Minute,
	}
}

// Train fits the device behavior models: periodic models from idle flows
// and user-action models from labeled activity flows.
func Train(idle []*flows.Flow, labeled map[string][]*flows.Flow, cfg Config) (*Pipeline, error) {
	models, _ := InferPeriodicModels(idle, cfg.Periodic)
	ua, err := TrainUserActionModels(labeled, idle, cfg.UserAction)
	if err != nil {
		return nil, err
	}
	gap := cfg.TraceGap
	if gap <= 0 {
		gap = time.Minute
	}
	return &Pipeline{
		Periodic:   NewPeriodicClassifier(models, cfg.Periodic),
		UserAction: ua,
		TraceGap:   gap,
	}, nil
}

// Fork returns a pipeline that shares every trained model of p by
// pointer and owns a copy of the periodic timer anchors. ClassifyOne
// and ShortTermDeviations write nothing but those anchors, so forks of
// one pipeline may classify concurrently, and none of them writes to p.
func (p *Pipeline) Fork() *Pipeline {
	f := *p
	f.Periodic = p.Periodic.Fork()
	return &f
}

// Classify partitions flows (chronologically sorted by the caller or not —
// they are sorted here) into events. The partition is disjoint: periodic
// first (timer, then DBSCAN), then user-action models, then aperiodic
// (paper §4.1).
func (p *Pipeline) Classify(fs []*flows.Flow) []Event {
	sorted := append([]*flows.Flow(nil), fs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	events := make([]Event, 0, len(sorted))
	for _, f := range sorted {
		events = append(events, p.ClassifyOne(f))
	}
	return events
}

// ClassifyOne classifies a single flow burst, skipping the defensive
// copy-and-sort and the slice allocations of Classify — the streaming
// monitor's per-burst path. The classification is identical to what
// Classify produces for the same flow.
func (p *Pipeline) ClassifyOne(f *flows.Flow) Event {
	if p.Periodic.Classify(f) {
		return Event{
			Class:  EventPeriodic,
			Device: f.Device,
			Label:  f.Key().Proto + "-" + f.Key().Domain,
			Time:   f.Start,
			Flow:   f,
		}
	}
	if label, conf, ok := p.UserAction.Classify(f); ok {
		return Event{
			Class:      EventUser,
			Device:     f.Device,
			Label:      label,
			Time:       f.Start,
			Flow:       f,
			Confidence: conf,
		}
	}
	return Event{
		Class:  EventAperiodic,
		Device: f.Device,
		Label:  f.Key().Proto + "-" + f.Key().Domain,
		Time:   f.Start,
		Flow:   f,
	}
}

// UserEvents filters the user events from a classified event stream.
func UserEvents(events []Event) []Event {
	var out []Event
	for _, e := range events {
		if e.Class == EventUser {
			out = append(out, e)
		}
	}
	return out
}

// EventTraces splits a chronological stream of user events into traces:
// consecutive events more than TraceGap apart start a new trace
// (paper §4.2, 1-minute threshold).
func (p *Pipeline) EventTraces(events []Event) []pfsm.Trace {
	user := UserEvents(events)
	sort.SliceStable(user, func(i, j int) bool { return user[i].Time.Before(user[j].Time) })
	var traces []pfsm.Trace
	var cur pfsm.Trace
	var lastT time.Time
	for _, e := range user {
		if len(cur) > 0 && e.Time.Sub(lastT) > p.TraceGap {
			traces = append(traces, cur)
			cur = nil
		}
		cur = append(cur, e.Label)
		lastT = e.Time
	}
	if len(cur) > 0 {
		traces = append(traces, cur)
	}
	return traces
}

// TrainSystem infers the PFSM system behavior model from user-event
// traces extracted from classified events (paper §4.2).
func (p *Pipeline) TrainSystem(events []Event, opts pfsm.Options) []pfsm.Trace {
	traces := p.EventTraces(events)
	p.System = pfsm.Infer(traces, opts)
	return traces
}
