package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"behaviot/internal/datasets"
	"behaviot/internal/dsp"
	"behaviot/internal/pfsm"
)

// PeriodicityResult reproduces the §5.1 synthetic periodicity evaluation:
// 100 periodic, 100 aperiodic (permuted) and 100 noisy sequences.
type PeriodicityResult struct {
	PeriodicOK, AperiodicOK, NoisyOK, N int
}

// Periodicity runs the synthetic sweep.
func Periodicity(seed int64, n int) *PeriodicityResult {
	if n <= 0 {
		n = 100
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := dsp.DefaultDetectorConfig()
	var det dsp.Detector
	res := &PeriodicityResult{N: n}
	for i := 0; i < n; i++ {
		period := 5 + rng.Float64()*595
		span := period * (50 + rng.Float64()*50)
		var ts []float64
		for x := 0.0; x < span; x += period {
			ts = append(ts, x+(rng.Float64()*2-1)*0.02*period)
		}
		if ok, p := det.IsPeriodic(ts, cfg); ok && math.Abs(p-period)/period < 0.2 {
			res.PeriodicOK++
		}
		perm := make([]float64, len(ts))
		for j := range perm {
			perm[j] = rng.Float64() * span
		}
		if ok, _ := det.IsPeriodic(perm, cfg); !ok {
			res.AperiodicOK++
		}
		noisy := append(append([]float64(nil), ts...), perm[:len(perm)/4]...)
		if ok, p := det.IsPeriodic(noisy, cfg); ok && math.Abs(p-period)/period < 0.2 {
			res.NoisyOK++
		}
	}
	return res
}

// String renders the sweep outcome.
func (r *PeriodicityResult) String() string {
	return fmt.Sprintf(
		"§5.1 synthetic periodicity: periodic %d/%d, aperiodic %d/%d, noisy %d/%d\nPaper: 100%% on all three sets\n",
		r.PeriodicOK, r.N, r.AperiodicOK, r.N, r.NoisyOK, r.N)
}

// DeviationCase is one §5.3 deviation-inference test case outcome.
type DeviationCase struct {
	Name      string
	Detected  bool
	ByMetrics []string
	Detail    string
}

// DeviationCasesResult bundles the three §5.3 test cases.
type DeviationCasesResult struct {
	Cases []DeviationCase
}

// DeviationCases reproduces the §5.3 deviation-inference test cases:
// new event sequences, event loss, and device misactivation. The paper
// detects all three as significant deviations.
func DeviationCases(l *Lab) *DeviationCasesResult {
	pipe := l.Pipeline()
	// Evaluate over a window three times the training set: the binomial
	// z-test needs enough occurrences of each source state, as it would
	// have in a realistic multi-week analysis window.
	var traces []pfsm.Trace
	for i := 0; i < 3; i++ {
		traces = append(traces, l.Traces()...)
	}
	at := time.Time{}
	res := &DeviationCasesResult{}

	record := func(name, detail string, shorts, longs int) {
		var by []string
		if shorts > 0 {
			by = append(by, "short-term")
		}
		if longs > 0 {
			by = append(by, "long-term")
		}
		res.Cases = append(res.Cases, DeviationCase{
			Name: name, Detected: len(by) > 0, ByMetrics: by, Detail: detail,
		})
	}

	// Case: new event sequences (e.g. kettle + door opener after leaving).
	injected := datasets.InjectKnownEvents(traces, 3, 11)
	record("new-event-sequences",
		"3 known events injected per trace at novel positions",
		len(pipe.ShortTermDeviations(injected, at)),
		len(pipe.LongTermDeviations(injected, at)))

	// Case: event loss (Gosund Bulb offline, its automation events gone).
	lost := datasets.DropDeviceEvents(traces, "Gosund Bulb")
	record("event-loss",
		"all Gosund Bulb events removed (Ring Camera routine broken)",
		len(pipe.ShortTermDeviations(lost, at)),
		len(pipe.LongTermDeviations(lost, at)))

	// Case: misactivation (Echo Spot firing nine times in a row).
	storm := datasets.RepeatEventInTrace(traces, "Echo Spot:voice", 9)
	record("misactivation",
		"Echo Spot voice event repeated 9 times in one trace",
		len(pipe.ShortTermDeviations(storm, at)),
		len(pipe.LongTermDeviations(storm, at)))
	return res
}

// AllDetected reports whether every case was flagged (the paper's result).
func (r *DeviationCasesResult) AllDetected() bool {
	for _, c := range r.Cases {
		if !c.Detected {
			return false
		}
	}
	return true
}

// String renders the outcomes.
func (r *DeviationCasesResult) String() string {
	var b strings.Builder
	b.WriteString("§5.3 deviation inference test cases\n")
	for _, c := range r.Cases {
		status := "MISSED"
		if c.Detected {
			status = "detected by " + strings.Join(c.ByMetrics, "+")
		}
		fmt.Fprintf(&b, "%-22s %-34s %s\n", c.Name, status, c.Detail)
	}
	fmt.Fprintf(&b, "all detected: %v (paper: all three detected)\n", r.AllDetected())
	return b.String()
}
