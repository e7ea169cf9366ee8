// Package experiments regenerates every table and figure of the paper's
// evaluation (§5, §6) on the simulated testbed. Each experiment returns a
// structured result with a String method that prints rows in the paper's
// format; cmd/experiments and the repository benchmarks are thin wrappers
// around this package.
package experiments

import (
	"sort"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/pfsm"
	"behaviot/internal/testbed"
)

// Scale controls dataset sizes so benchmarks can run reduced settings.
type Scale struct {
	// IdleDays is the idle capture length (paper: 5).
	IdleDays int
	// ActivityReps is the repetitions per activity (paper: ≥30).
	ActivityReps int
	// RoutineDays is the routine capture length (paper: 7).
	RoutineDays int
	// Devices optionally restricts the device set (nil = all 49).
	Devices []string
	// Seed drives all generation.
	Seed int64
	// Workers bounds dataset-generation and per-device experiment
	// concurrency (0 = all cores). Results are identical for every value.
	Workers int
}

// PaperScale reproduces the paper's dataset sizes.
func PaperScale() Scale {
	return Scale{IdleDays: 5, ActivityReps: 30, RoutineDays: 7, Seed: 2021}
}

// QuickScale is a reduced setting for fast iteration and benchmarks.
func QuickScale() Scale {
	return Scale{
		IdleDays: 2, ActivityReps: 10, RoutineDays: 2, Seed: 2021,
		Devices: []string{
			"TPLink Plug", "TPLink Bulb", "Wemo Plug", "Gosund Bulb",
			"Smartlife Bulb", "Ring Camera", "Ring Doorbell", "Echo Spot",
			"Meross Dooropener", "iKettle", "Govee Bulb", "Jinvoo Bulb",
		},
	}
}

// Lab lazily materializes the datasets and trained pipeline shared by the
// experiments.
type Lab struct {
	TB    *testbed.Testbed
	Scale Scale

	devices []*testbed.DeviceProfile

	idleTrain []*flows.Flow
	idleTest  []*flows.Flow
	samples   []datasets.ActivitySample
	routine   *datasets.RoutineDataset
	pipe      *core.Pipeline
	traces    []pfsm.Trace
}

// NewLab creates a Lab at the given scale.
func NewLab(s Scale) *Lab {
	if s.IdleDays <= 0 {
		s.IdleDays = 5
	}
	if s.ActivityReps <= 0 {
		s.ActivityReps = 30
	}
	if s.RoutineDays <= 0 {
		s.RoutineDays = 7
	}
	tb := testbed.New()
	l := &Lab{TB: tb, Scale: s}
	if s.Devices == nil {
		l.devices = tb.Devices
	} else {
		for _, name := range s.Devices {
			if d := tb.Device(name); d != nil {
				l.devices = append(l.devices, d)
			}
		}
	}
	return l
}

// Devices returns the lab's device set.
func (l *Lab) Devices() []*testbed.DeviceProfile { return l.devices }

// deviceSet returns the lab's device names as a set.
func (l *Lab) deviceSet() map[string]bool {
	out := map[string]bool{}
	for _, d := range l.devices {
		out[d.Name] = true
	}
	return out
}

// IdleTrain returns the idle training split (all but the last day).
func (l *Lab) IdleTrain() []*flows.Flow {
	l.ensureIdle()
	return l.idleTrain
}

// IdleTest returns the held-out idle day.
func (l *Lab) IdleTest() []*flows.Flow {
	l.ensureIdle()
	return l.idleTest
}

func (l *Lab) ensureIdle() {
	if l.idleTrain != nil {
		return
	}
	trainDays := l.Scale.IdleDays - 1
	if trainDays < 1 {
		trainDays = 1
	}
	l.idleTrain = datasets.Idle(l.TB, l.Scale.Seed, datasets.DefaultStart, trainDays, l.devices, l.Scale.Workers)
	l.idleTest = datasets.Idle(l.TB, l.Scale.Seed+1,
		datasets.DefaultStart.Add(time.Duration(trainDays)*24*time.Hour), 1, l.devices, l.Scale.Workers)
}

// Samples returns the labeled activity dataset, filtered to the lab's
// device set.
func (l *Lab) Samples() []datasets.ActivitySample {
	if l.samples == nil {
		all := datasets.Activity(l.TB, l.Scale.Seed+2, l.Scale.ActivityReps, l.Scale.Workers)
		keep := l.deviceSet()
		for _, s := range all {
			if keep[s.Device] {
				l.samples = append(l.samples, s)
			}
		}
	}
	return l.samples
}

// HeldOutSamples generates fresh labeled repetitions not used in training.
func (l *Lab) HeldOutSamples(reps int) []datasets.ActivitySample {
	all := datasets.Activity(l.TB, l.Scale.Seed+77, reps, l.Scale.Workers)
	keep := l.deviceSet()
	var out []datasets.ActivitySample
	for _, s := range all {
		if keep[s.Device] {
			out = append(out, s)
		}
	}
	return out
}

// Routine returns the routine dataset (restricted to routine devices that
// are in the lab's device set).
func (l *Lab) Routine() *datasets.RoutineDataset {
	if l.routine == nil {
		l.routine = datasets.Routine(l.TB, l.Scale.Seed+3,
			datasets.DefaultStart.Add(30*24*time.Hour),
			datasets.RoutineConfig{Days: l.Scale.RoutineDays, Workers: l.Scale.Workers})
	}
	return l.routine
}

// Pipeline returns a fork of the trained pipeline (device models
// trained on the idle training split and the activity dataset; system
// model and baselines from the routine dataset). Training runs on the
// first call; every caller then gets its own timer anchors over the
// shared models, so no experiment can change what the next one sees.
func (l *Lab) Pipeline() *core.Pipeline {
	if l.pipe == nil {
		cfg := core.DefaultConfig()
		pipe, err := core.Train(l.IdleTrain(), datasets.LabeledFlows(l.Samples()), cfg)
		if err != nil {
			panic("experiments: pipeline training failed: " + err.Error())
		}
		events := pipe.Classify(l.routineFlowsForDevices())
		l.traces = pipe.TrainSystem(events, pfsm.Options{})
		pipe.Calibrate(l.traces)
		l.pipe = pipe
	}
	return l.pipe.Fork()
}

// Traces returns the system-model training traces.
func (l *Lab) Traces() []pfsm.Trace {
	l.Pipeline()
	return l.traces
}

// routineFlowsForDevices filters the routine dataset to the lab's devices.
func (l *Lab) routineFlowsForDevices() []*flows.Flow {
	keep := l.deviceSet()
	var out []*flows.Flow
	for _, f := range l.Routine().Flows {
		if keep[f.Device] {
			out = append(out, f)
		}
	}
	return out
}

// DeviceInfos builds the destination-analysis metadata map.
func (l *Lab) DeviceInfos() map[string]core.DeviceInfo {
	out := map[string]core.DeviceInfo{}
	for _, d := range l.TB.Devices {
		out[d.Name] = core.DeviceInfo{Vendor: d.Vendor, Category: string(d.Category)}
	}
	return out
}

// CombinedEvents classifies idle-test + activity + routine flows with the
// trained pipeline (the "combined dataset" of §6.1).
func (l *Lab) CombinedEvents() []core.Event {
	pipe := l.Pipeline()
	pipe.Periodic.Reset()
	var combined []*flows.Flow
	combined = append(combined, l.IdleTest()...)
	for _, s := range l.Samples() {
		combined = append(combined, s.Flows...)
	}
	combined = append(combined, l.routineFlowsForDevices()...)
	return pipe.Classify(combined)
}

// categoryOf returns a device's category name.
func (l *Lab) categoryOf(device string) string {
	if d := l.TB.Device(device); d != nil {
		return string(d.Category)
	}
	return "?"
}

// sortedCategories returns category names in the paper's table order.
func sortedCategories() []string {
	out := make([]string, 0, len(testbed.Categories))
	for _, c := range testbed.Categories {
		out = append(out, string(c))
	}
	return out
}

// sortedKeys returns sorted map keys.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
