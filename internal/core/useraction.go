package core

import (
	"sort"
	"strings"

	"behaviot/internal/features"
	"behaviot/internal/flows"
	"behaviot/internal/randomforest"
)

// backgroundLabel is the pseudo-activity under which idle (non-user) flows
// are added to each device's ensemble as negatives; predicting it means
// "not a user event".
const backgroundLabel = "__background__"

// UserActionModels is the paper's user-action model set: one binary Random
// Forest per user activity (Appendix B) over the Table 8 features. Models
// are partitioned per device — the gateway attributes every flow to a
// device, so a flow is only ever scored against its own device's
// activities, with that device's other activities plus background traffic
// as negatives.
type UserActionModels struct {
	// byDevice maps a device name to its activity ensemble.
	byDevice map[string]*deviceModels
	norm     *features.Normalizer
	// labels lists every trained "device:activity" label; only the
	// snapshot format carries it.
	labels []string
}

// deviceModels holds one device's classifiers.
type deviceModels struct {
	ensemble *randomforest.BinaryEnsemble
	// multi is the single multiclass forest used instead of the binary
	// ensemble when UserActionConfig.Multiclass is set (ablation path).
	multi       *randomforest.Forest
	multiLabels []string
	threshold   float64
}

// UserActionConfig tunes training.
type UserActionConfig struct {
	// Forest configures each binary Random Forest.
	Forest randomforest.Config
	// MaxBackground caps the number of idle flows used as negatives per
	// device (default 200); background traffic vastly outnumbers user
	// events and would otherwise dominate training time.
	MaxBackground int
	// Threshold is the minimum positive confidence (default 0.5).
	Threshold float64
	// Multiclass switches to a single multi-class forest per device
	// instead of per-activity binary classifiers. Exposed for the
	// ablation bench; the paper uses binary classifiers.
	Multiclass bool
}

// DefaultUserActionConfig returns the pipeline defaults.
func DefaultUserActionConfig() UserActionConfig {
	return UserActionConfig{
		Forest:        randomforest.Config{NumTrees: 60, MaxDepth: 14, Seed: 1},
		MaxBackground: 200,
		Threshold:     0.5,
	}
}

// TrainUserActionModels fits the per-device ensembles. labeled maps
// "device:activity" labels to their training flows; background holds idle
// flows (may be nil), attributed to devices by their Device field.
func TrainUserActionModels(labeled map[string][]*flows.Flow, background []*flows.Flow, cfg UserActionConfig) (*UserActionModels, error) {
	if cfg.MaxBackground <= 0 {
		cfg.MaxBackground = 200
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.5
	}
	// Group labels by device and fit the normalizer on everything.
	// Iterate labels in sorted order, not map order: the order of `all`
	// feeds the normalizer's mean/variance summation, and float rounding
	// must not depend on the per-process map hash seed.
	var all [][]float64
	type labeledVecs struct {
		label string
		vecs  [][]float64
	}
	perDevice := map[string][]labeledVecs{}
	labels := make([]string, 0, len(labeled))
	for label := range labeled {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		device := deviceOfLabel(label)
		var vecs [][]float64
		for _, f := range labeled[label] {
			v := features.Extract(f)
			all = append(all, v)
			vecs = append(vecs, v)
		}
		perDevice[device] = append(perDevice[device], labeledVecs{label: label, vecs: vecs})
	}

	// Background flows per device. Sampling is group-stratified with the
	// per-group extremes (largest burst, most packets) always included:
	// rare background shapes such as a boot-time DNS burst must be seen
	// as negatives, or the classifiers will claim them as user events.
	bgFlowsByDevice := map[string][]*flows.Flow{}
	for _, f := range background {
		bgFlowsByDevice[f.Device] = append(bgFlowsByDevice[f.Device], f)
	}
	// Sorted device order again: bgGlobal's order decides which samples
	// devices without their own background borrow via subsample.
	bgByDevice := map[string][][]float64{}
	var bgGlobal [][]float64
	bgDevices := make([]string, 0, len(bgFlowsByDevice))
	for d := range bgFlowsByDevice {
		bgDevices = append(bgDevices, d)
	}
	sort.Strings(bgDevices)
	for _, device := range bgDevices {
		fs := bgFlowsByDevice[device]
		for _, f := range sampleBackground(fs, cfg.MaxBackground) {
			v := features.Extract(f)
			all = append(all, v)
			bgByDevice[device] = append(bgByDevice[device], v)
			bgGlobal = append(bgGlobal, v)
		}
	}
	norm := features.FitNormalizer(all)

	m := &UserActionModels{byDevice: map[string]*deviceModels{}, norm: norm, labels: labels}
	devices := make([]string, 0, len(perDevice))
	for d := range perDevice {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	for _, device := range devices {
		samples := map[string][][]float64{}
		for _, lv := range perDevice[device] {
			samples[lv.label] = norm.ApplyAll(lv.vecs)
		}
		bg := bgByDevice[device]
		if len(bg) == 0 {
			bg = subsample(bgGlobal, cfg.MaxBackground)
		}
		if len(bg) > 0 {
			samples[backgroundLabel] = norm.ApplyAll(bg)
		}
		dm, err := trainDeviceModels(samples, cfg)
		if err != nil {
			return nil, err
		}
		m.byDevice[device] = dm
	}
	return m, nil
}

func trainDeviceModels(samples map[string][][]float64, cfg UserActionConfig) (*deviceModels, error) {
	dm := &deviceModels{threshold: cfg.Threshold}
	if cfg.Multiclass {
		var labels []string
		for l := range samples {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		var X [][]float64
		var y []int
		for cls, l := range labels {
			for _, v := range samples[l] {
				X = append(X, v)
				y = append(y, cls)
			}
		}
		f, err := randomforest.Train(X, y, cfg.Forest)
		if err != nil {
			return nil, err
		}
		dm.multi = f
		dm.multiLabels = labels
		return dm, nil
	}
	ensemble, err := randomforest.TrainBinaryEnsemble(samples, cfg.Forest)
	if err != nil {
		return nil, err
	}
	ensemble.Threshold = cfg.Threshold
	dm.ensemble = ensemble
	return dm, nil
}

// sampleBackground picks up to max background flows for one device:
// for each traffic group, the flow with the most bytes and the one with
// the most packets (the shapes most likely to be mistaken for user
// events), then an even spread over the rest of the budget.
func sampleBackground(fs []*flows.Flow, max int) []*flows.Flow {
	if len(fs) <= max {
		return fs
	}
	type extremes struct{ biggest, busiest *flows.Flow }
	byGroup := map[flows.GroupKey]*extremes{}
	for _, f := range fs {
		e := byGroup[f.Key()]
		if e == nil {
			e = &extremes{}
			byGroup[f.Key()] = e
		}
		if e.biggest == nil || f.Bytes() > e.biggest.Bytes() {
			e.biggest = f
		}
		if e.busiest == nil || len(f.Packets) > len(e.busiest.Packets) {
			e.busiest = f
		}
	}
	picked := map[*flows.Flow]bool{}
	var out []*flows.Flow
	add := func(f *flows.Flow) {
		if f != nil && !picked[f] && len(out) < max {
			picked[f] = true
			out = append(out, f)
		}
	}
	// Deterministic group order.
	keys := make([]flows.GroupKey, 0, len(byGroup))
	for k := range byGroup {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return groupKeyLess(keys[i], keys[j]) })
	for _, k := range keys {
		add(byGroup[k].biggest)
		add(byGroup[k].busiest)
	}
	if remaining := max - len(out); remaining > 0 {
		step := len(fs) / remaining
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(fs) && len(out) < max; i += step {
			add(fs[i])
		}
	}
	return out
}

func subsample(vs [][]float64, max int) [][]float64 {
	if len(vs) <= max {
		return vs
	}
	step := len(vs) / max
	out := make([][]float64, 0, max+1)
	for i := 0; i < len(vs); i += step {
		out = append(out, vs[i])
	}
	return out
}

func deviceOfLabel(label string) string {
	if i := strings.IndexByte(label, ':'); i >= 0 {
		return label[:i]
	}
	return label
}

// Classify returns the activity label for a flow, with ok=false when the
// flow is not recognized as any user event of its device (→ aperiodic,
// Appendix B).
func (m *UserActionModels) Classify(f *flows.Flow) (label string, confidence float64, ok bool) {
	dm := m.byDevice[f.Device]
	if dm == nil {
		return "", 0, false
	}
	v := m.norm.Apply(features.Extract(f))
	if dm.multi != nil {
		p := dm.multi.Proba(v)
		best := 0
		for c := 1; c < len(p); c++ {
			if p[c] > p[best] {
				best = c
			}
		}
		label, confidence = dm.multiLabels[best], p[best]
		if label == backgroundLabel || confidence < dm.threshold {
			return "", confidence, false
		}
		return label, confidence, true
	}
	label, confidence, ok = dm.ensemble.Predict(v)
	if !ok || label == backgroundLabel {
		return "", confidence, false
	}
	return label, confidence, true
}
