package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"behaviot/internal/flows"
	"behaviot/internal/pfsm"
	"behaviot/internal/stats"
)

// DeviationKind identifies which metric flagged a deviation.
type DeviationKind uint8

// The three deviation metrics of §4.3.
const (
	DevPeriodic DeviationKind = iota
	DevShortTerm
	DevLongTerm
)

// String names the metric.
func (k DeviationKind) String() string {
	switch k {
	case DevPeriodic:
		return "periodic-event"
	case DevShortTerm:
		return "short-term"
	default:
		return "long-term"
	}
}

// Deviation is one significant behavior deviation.
type Deviation struct {
	Kind   DeviationKind
	Time   time.Time
	Score  float64
	Device string
	// Detail describes the responsible traffic group, trace, or
	// transition.
	Detail string
}

// PeriodicDeviationMetric computes M_p = ln(|T0-T|/T + 1) (paper §4.3):
// the elapsed time T0 since the last event, against the modeled period T.
func PeriodicDeviationMetric(elapsed, period float64) float64 {
	if period <= 0 {
		return 0
	}
	return math.Log(math.Abs(elapsed-period)/period + 1)
}

// ShortTermMetric computes A_T = 1 - ln(P_T) for a trace probability.
func ShortTermMetric(traceProb float64) float64 {
	if traceProb <= 0 {
		return math.Inf(1)
	}
	return 1 - math.Log(traceProb)
}

// DefaultPeriodicThreshold is the paper's empirically chosen threshold
// for the periodic-event deviation metric: ln(5) ≈ 1.61, reached when
// T0 = 5T (§5.3).
var DefaultPeriodicThreshold = math.Log(5)

// Baseline holds the trained deviation baselines: the short-term metric's
// μ+3σ threshold from training traces and the long-term z threshold from
// the 95% confidence interval.
type Baseline struct {
	// ShortTermMean and ShortTermStd summarize A_T over training traces.
	ShortTermMean, ShortTermStd float64
	// ShortTermSigmas is the n in ρ = μ + nσ (paper uses 3).
	ShortTermSigmas float64
	// LongTermZ is the |z| significance bound (1.96 for CI = 95%).
	LongTermZ float64
	// PeriodicThreshold is the M_p significance bound (ln 5).
	PeriodicThreshold float64
}

// PeriodicThreshold returns the M_p significance bound: the calibrated
// baseline's, or DefaultPeriodicThreshold before Calibrate has run. It
// only reads p, so shared pipelines may call it concurrently.
func (p *Pipeline) PeriodicThreshold() float64 {
	if p.Baseline != nil {
		return p.Baseline.PeriodicThreshold
	}
	return DefaultPeriodicThreshold
}

// ShortTermThreshold returns ρ = μ + nσ.
func (b *Baseline) ShortTermThreshold() float64 {
	return b.ShortTermMean + b.ShortTermSigmas*b.ShortTermStd
}

// Calibrate computes deviation baselines from the training traces used to
// build the system model (paper §5.3).
func (p *Pipeline) Calibrate(trainingTraces []pfsm.Trace) *Baseline {
	scores := make([]float64, 0, len(trainingTraces))
	for _, tr := range trainingTraces {
		scores = append(scores, ShortTermMetric(p.System.TraceProb(tr)))
	}
	mean, std := stats.MeanStd(scores)
	b := &Baseline{
		ShortTermMean:     mean,
		ShortTermStd:      std,
		ShortTermSigmas:   3,
		LongTermZ:         stats.NormalQuantile(0.975), // 95% CI
		PeriodicThreshold: DefaultPeriodicThreshold,
	}
	p.Baseline = b
	return b
}

// PeriodicScanState carries each traffic group's last-event time across
// analysis windows, so that a silence spanning a window boundary (e.g. an
// outage overnight) is still measured by the count-up timer.
type PeriodicScanState struct {
	Last map[flows.GroupKey]time.Time
	// alarmed marks groups whose ongoing silence was already reported,
	// so a multi-window outage is flagged once until the group recovers.
	alarmed map[flows.GroupKey]bool
}

// NewPeriodicScanState returns an empty carry-over state.
func NewPeriodicScanState() *PeriodicScanState {
	return &PeriodicScanState{
		Last:    map[flows.GroupKey]time.Time{},
		alarmed: map[flows.GroupKey]bool{},
	}
}

// PeriodicDeviations scans classified events plus the window end time and
// returns the significant periodic-event deviations: events whose
// inter-arrival deviates from the modeled period beyond the threshold, and
// groups whose events stopped entirely (evaluated with a count-up timer at
// windowEnd). Call with the events of one analysis window. For windowed
// longitudinal analysis use PeriodicDeviationsStateful, which carries
// last-event times across windows.
func (p *Pipeline) PeriodicDeviations(events []Event, windowEnd time.Time) []Deviation {
	return p.PeriodicDeviationsStateful(events, windowEnd, NewPeriodicScanState())
}

// PeriodicDeviationsStateful is PeriodicDeviations with carry-over state:
// the first event of a group in this window is measured against the
// group's last event from previous windows.
func (p *Pipeline) PeriodicDeviationsStateful(events []Event, windowEnd time.Time, state *PeriodicScanState) []Deviation {
	threshold := p.PeriodicThreshold()
	if state.Last == nil {
		state.Last = map[flows.GroupKey]time.Time{}
	}
	if state.alarmed == nil {
		state.alarmed = map[flows.GroupKey]bool{}
	}
	last := state.Last
	var out []Deviation
	for _, e := range events {
		if e.Class != EventPeriodic || e.Flow == nil {
			continue
		}
		key := e.Flow.Key()
		m, ok := p.Periodic.Models()[key]
		if !ok {
			continue
		}
		if prev, seen := last[key]; seen {
			elapsed := e.Time.Sub(prev).Seconds()
			score := PeriodicDeviationMetric(elapsed, m.Period)
			if score > threshold && !state.alarmed[key] {
				out = append(out, Deviation{
					Kind: DevPeriodic, Time: e.Time, Score: score,
					Device: e.Device, Detail: m.String(),
				})
			}
		}
		last[key] = e.Time
		state.alarmed[key] = false
	}
	// Count-up timers: groups that went silent before the window ended.
	keys := make([]flows.GroupKey, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return groupKeyLess(keys[i], keys[j]) })
	for _, key := range keys {
		m := p.Periodic.Models()[key]
		if m == nil {
			continue
		}
		elapsed := windowEnd.Sub(last[key]).Seconds()
		if elapsed <= 0 {
			continue
		}
		score := PeriodicDeviationMetric(elapsed, m.Period)
		if score > threshold && !state.alarmed[key] {
			out = append(out, Deviation{
				Kind: DevPeriodic, Time: windowEnd, Score: score,
				Device: key.Device, Detail: m.String() + " (silent)",
			})
			state.alarmed[key] = true
		}
	}
	return out
}

// ShortTermDeviations evaluates A_T for each trace against the calibrated
// threshold.
func (p *Pipeline) ShortTermDeviations(traces []pfsm.Trace, at time.Time) []Deviation {
	if p.System == nil || p.Baseline == nil {
		return nil
	}
	thr := p.Baseline.ShortTermThreshold()
	var out []Deviation
	for _, tr := range traces {
		score := ShortTermMetric(p.System.TraceProb(tr))
		if score > thr {
			out = append(out, Deviation{
				Kind: DevShortTerm, Time: at, Score: score,
				Device: traceDevice(tr), Detail: traceString(tr),
			})
		}
	}
	return out
}

// LongTermDeviations compares per-transition frequencies in a window of
// traces against the model's transition probabilities with the binomial
// z-test (paper §4.3). A transition is significant when |z| exceeds the
// CI bound.
func (p *Pipeline) LongTermDeviations(traces []pfsm.Trace, at time.Time) []Deviation {
	if p.System == nil || p.Baseline == nil || len(traces) == 0 {
		return nil
	}
	// Observed label-transition counts in the window (label-level; the
	// label is the interpretable unit for reporting).
	type edge struct{ from, to string }
	obs := map[edge]int{}
	outTotals := map[string]int{}
	for _, tr := range traces {
		prev := pfsm.InitialLabel
		for _, lab := range tr {
			obs[edge{prev, lab}]++
			outTotals[prev]++
			prev = lab
		}
		obs[edge{prev, pfsm.TerminalLabel}]++
		outTotals[prev]++
	}
	// Model label-transition probabilities (aggregating split states).
	modelCounts := map[edge]int{}
	modelTotals := map[string]int{}
	labelSet := map[string]bool{}
	for _, tr := range p.System.Transitions() {
		e := edge{tr.FromLabel, tr.ToLabel}
		modelCounts[e] += tr.Count
		modelTotals[tr.FromLabel] += tr.Count
		labelSet[tr.FromLabel] = true
		labelSet[tr.ToLabel] = true
	}
	numLabels := float64(len(labelSet))
	edges := make([]edge, 0, len(obs))
	for e := range obs {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	// minTrials is the minimum number of occurrences of the source state
	// for the binomial z approximation to be meaningful; below it a single
	// trace would dominate the statistic.
	const minTrials = 5
	// longTermAlpha lightly smooths p0 so never-seen transitions get a
	// small non-zero baseline (finite but large z, mirroring footnote 3)
	// without distorting well-supported probabilities.
	const longTermAlpha = 0.05
	var out []Deviation
	for _, e := range edges {
		n := outTotals[e.from]
		if n < minTrials {
			continue
		}
		pObs := float64(obs[e]) / float64(n)
		p0 := longTermAlpha / (longTermAlpha * (numLabels + 1))
		if t := modelTotals[e.from]; t > 0 {
			p0 = (float64(modelCounts[e]) + longTermAlpha) /
				(float64(t) + longTermAlpha*(numLabels+1))
		}
		z := math.Abs(stats.BinomialZ(pObs, p0, n))
		if z > p.Baseline.LongTermZ {
			out = append(out, Deviation{
				Kind: DevLongTerm, Time: at, Score: z,
				Device: deviceOfLabel(e.from) + "→" + deviceOfLabel(e.to),
				Detail: e.from + " → " + e.to,
			})
		}
	}
	return out
}

func traceDevice(tr pfsm.Trace) string {
	if len(tr) == 0 {
		return ""
	}
	return deviceOfLabel(tr[0])
}

func traceString(tr pfsm.Trace) string {
	const maxEvents = 8
	s := ""
	for i, l := range tr {
		if i >= maxEvents {
			s += fmt.Sprintf(" → … (%d more)", len(tr)-maxEvents)
			break
		}
		if i > 0 {
			s += " → "
		}
		s += l
	}
	return s
}
