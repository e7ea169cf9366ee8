package behaviot

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (one benchmark per artifact, as indexed in DESIGN.md), plus
// ablation benches for the design choices the paper motivates. They run at
// the reduced QuickScale so `go test -bench=.` completes in minutes; the
// cmd/experiments binary reproduces the same artifacts at paper scale.
//
// Benchmarks report two things: wall-clock cost of regenerating the
// artifact, and (via b.Log on the first iteration) the artifact itself so
// the paper-vs-measured comparison is visible in bench output.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/experiments"
	"behaviot/internal/pfsm"
	"behaviot/internal/testbed"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

// lab returns the shared quick-scale lab, building (and training) it
// outside the benchmark timer.
func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.QuickScale())
		benchLab.Pipeline() // train everything up front
	})
	return benchLab
}

func logFirst(b *testing.B, i int, s interface{ String() string }) {
	if i == 0 {
		b.Log("\n" + s.String())
	}
}

// BenchmarkPeriodicityDetection regenerates the §5.1 synthetic sweep.
func BenchmarkPeriodicityDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Periodicity(int64(i+1), 20)
		logFirst(b, i, r)
	}
}

// BenchmarkTable2EventInference regenerates Table 2.
func BenchmarkTable2EventInference(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(l)
		logFirst(b, i, r)
	}
}

// BenchmarkTable3PingPong regenerates the Table 3 comparison.
func BenchmarkTable3PingPong(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(l)
		logFirst(b, i, r)
	}
}

// BenchmarkTable4PeriodicModels regenerates Table 4.
func BenchmarkTable4PeriodicModels(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Table4(l)
		logFirst(b, i, r)
	}
}

// BenchmarkTable5Destinations regenerates Table 5.
func BenchmarkTable5Destinations(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Table5(l)
		logFirst(b, i, r)
	}
}

// BenchmarkTable9PerDevice regenerates Table 9 and the §6.1 headline.
func BenchmarkTable9PerDevice(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Table9(l)
		logFirst(b, i, r)
	}
}

// BenchmarkFig3ModelComplexity regenerates Fig 3.
func BenchmarkFig3ModelComplexity(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(l)
		logFirst(b, i, r)
	}
}

// BenchmarkFig4aPeriodicDeviation regenerates Fig 4a.
func BenchmarkFig4aPeriodicDeviation(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4a(l)
		logFirst(b, i, r)
	}
}

// BenchmarkFig4bShortTerm regenerates Fig 4b.
func BenchmarkFig4bShortTerm(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4b(l)
		logFirst(b, i, r)
	}
}

// BenchmarkFig4cLongTerm regenerates Fig 4c.
func BenchmarkFig4cLongTerm(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4c(l)
		logFirst(b, i, r)
	}
}

// BenchmarkDeviationCases regenerates the §5.3 test cases.
func BenchmarkDeviationCases(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.DeviationCases(l)
		logFirst(b, i, r)
	}
}

// BenchmarkFig5aUncontrolledUser replays an uncontrolled window covering
// the user-event incidents of Fig 5a (relocations, storm, reset).
func BenchmarkFig5aUncontrolledUser(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(l, 16)
		logFirst(b, i, r)
	}
}

// BenchmarkFig5bUncontrolledPeriodic replays a window covering periodic
// incidents of Fig 5b (outage day 27, malfunction days).
func BenchmarkFig5bUncontrolledPeriodic(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(l, 30)
		logFirst(b, i, r)
	}
}

// BenchmarkAblations regenerates the design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Ablations(l)
		logFirst(b, i, r)
	}
}

// --- Component-level benchmarks of the pipeline itself ---

// BenchmarkTrainDeviceModels measures full device-model training.
func BenchmarkTrainDeviceModels(b *testing.B) {
	l := lab(b)
	idle := l.IdleTrain()
	labeled := datasets.LabeledFlows(l.Samples())
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(idle, labeled, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifyDay measures event classification throughput over a
// held-out idle day.
func BenchmarkClassifyDay(b *testing.B) {
	l := lab(b)
	pipe := l.Pipeline()
	day := l.IdleTest()
	b.SetBytes(int64(len(day)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Periodic.Reset()
		pipe.Classify(day)
	}
}

// BenchmarkPFSMInference measures system-model inference on the routine
// traces.
func BenchmarkPFSMInference(b *testing.B) {
	l := lab(b)
	traces := l.Traces()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfsm.Infer(traces, pfsm.Options{})
	}
}

// BenchmarkDeviationScan measures a full three-metric deviation scan over
// one analysis window.
func BenchmarkDeviationScan(b *testing.B) {
	l := lab(b)
	pipe := l.Pipeline()
	pipe.Periodic.Reset()
	events := pipe.Classify(l.IdleTest())
	traces := l.Traces()
	end := datasets.DefaultStart.Add(5 * 24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.PeriodicDeviations(events, end)
		pipe.ShortTermDeviations(traces, end)
		pipe.LongTermDeviations(traces, end)
	}
}

// BenchmarkEndToEndDay measures the complete per-day monitoring loop:
// generate a day of uncontrolled traffic, classify, and scan for
// deviations (the cadence of the paper's longitudinal study).
func BenchmarkEndToEndDay(b *testing.B) {
	l := lab(b)
	pipe := l.Pipeline()
	cfg := datasets.UncontrolledConfig{Days: 87, Seed: 1}
	keep := map[string]bool{}
	for _, d := range l.Devices() {
		keep[d.Name] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := datasets.UncontrolledDay(l.TB, cfg, nil, i%87)
		filtered := fs[:0]
		for _, f := range fs {
			if keep[f.Device] {
				filtered = append(filtered, f)
			}
		}
		pipe.Periodic.Reset()
		events := pipe.Classify(filtered)
		end := datasets.UncontrolledStart.Add(time.Duration(i%87+1) * 24 * time.Hour)
		pipe.PeriodicDeviations(events, end)
		traces := pipe.EventTraces(events)
		pipe.ShortTermDeviations(traces, end)
		pipe.LongTermDeviations(traces, end)
	}
}

// BenchmarkRetrainPeriodicModels measures the §7.3 model-refresh path on
// a fresh idle day.
func BenchmarkRetrainPeriodicModels(b *testing.B) {
	l := lab(b)
	pipe := l.Pipeline()
	recent := l.IdleTest()
	cfg := core.DefaultPeriodicConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.UpdatePeriodicModels(recent, cfg)
	}
}

// BenchmarkIdleGenerationWorkers measures parallel idle-dataset
// generation at several worker counts; the flows are byte-identical at
// every count, so the sub-benchmarks differ only in wall clock.
func BenchmarkIdleGenerationWorkers(b *testing.B) {
	tb := testbed.New()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				datasets.Idle(tb, 1, datasets.DefaultStart, 1, tb.Devices, w)
			}
		})
	}
}

// BenchmarkTestbedGeneration measures raw traffic synthesis for the full
// 49-device testbed.
func BenchmarkTestbedGeneration(b *testing.B) {
	tb := testbed.New()
	g := testbed.NewGenerator(tb, 1)
	from := datasets.DefaultStart
	to := from.Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range tb.Devices {
			g.PeriodicWindow(d, from, to)
		}
	}
}
