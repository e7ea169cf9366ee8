package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"behaviot/internal/core"
)

// tinyScale is a minimal lab for worker-equivalence checks: large
// enough that every experiment has data, small enough to train two
// full pipelines in one test.
func tinyScale(workers int) Scale {
	return Scale{
		IdleDays: 2, ActivityReps: 5, RoutineDays: 1, Seed: 2021,
		Workers: workers,
		Devices: []string{
			"TPLink Plug", "TPLink Bulb", "Wemo Plug",
			"Ring Camera", "Echo Spot", "Govee Bulb",
		},
	}
}

// TestPipelineSnapshotWorkerInvariant pins training determinism across
// -workers: training with 1 worker and training with 3 must produce
// byte-identical pipeline snapshots and equal system-model traces.
func TestPipelineSnapshotWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two pipelines")
	}
	serial := NewLab(tinyScale(1))
	parallel3 := NewLab(tinyScale(3))
	if a, b := core.MarshalPipeline(serial.Pipeline()), core.MarshalPipeline(parallel3.Pipeline()); !bytes.Equal(a, b) {
		t.Errorf("pipeline snapshots differ between workers=1 and workers=3 (%d vs %d bytes)", len(a), len(b))
	}
	if !reflect.DeepEqual(serial.Traces(), parallel3.Traces()) {
		t.Errorf("system-model traces differ between workers=1 and workers=3 (%d vs %d)",
			len(serial.Traces()), len(parallel3.Traces()))
	}
}

// TestExperimentsWorkerEquivalent pins the end-to-end contract: every
// table and figure renders to the identical string whether the lab ran
// serially or on eight workers.
func TestExperimentsWorkerEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two pipelines")
	}
	serial := NewLab(tinyScale(1))
	parallel8 := NewLab(tinyScale(8))

	checks := []struct {
		name string
		run  func(*Lab) string
	}{
		{"table2", func(l *Lab) string { return Table2(l).String() }},
		{"table3", func(l *Lab) string { return Table3(l).String() }},
		{"table9", func(l *Lab) string { return Table9(l).String() }},
		{"fig3", func(l *Lab) string { return Fig3(l).String() }},
		{"fig4a5fold", func(l *Lab) string { return Fig4aKFold(l, 5).String() }},
		{"fig5", func(l *Lab) string { return Fig5(l, 3).String() }},
		{"ablations", func(l *Lab) string { return Ablations(l).String() }},
		{"impairment", func(l *Lab) string {
			r, err := Impairment(l)
			if err != nil {
				t.Fatalf("impairment sweep: %v", err)
			}
			return r.String()
		}},
	}
	for _, c := range checks {
		a := c.run(serial)
		b := c.run(parallel8)
		if a != b {
			t.Errorf("%s output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", c.name, a, b)
		}
	}
}
