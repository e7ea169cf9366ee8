package core

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"time"

	"behaviot/internal/dbscan"
	"behaviot/internal/dsp"
	"behaviot/internal/features"
	"behaviot/internal/flows"
)

// PeriodicModel captures the periodic behavior of one traffic group
// (device, destination domain, protocol): the inferred period plus a
// DBSCAN cluster model over the group's flow features, used to label
// future flows whose timing drifts (paper §4.1).
type PeriodicModel struct {
	// Key identifies the traffic group.
	Key flows.GroupKey
	// Period is the dominant inferred period in seconds.
	Period float64
	// ACF is the autocorrelation score backing the period.
	ACF float64
	// AllPeriods lists every validated period of the group.
	AllPeriods []dsp.PeriodResult
	// FlowCount is the number of training flows in the group.
	FlowCount int

	cluster *dbscan.Model
	norm    *features.Normalizer
}

// String renders the model in the paper's "proto-domain-period" notation
// (e.g. "TCP-devs.tplinkcloud.com-236").
func (m *PeriodicModel) String() string {
	return fmt.Sprintf("%s-%s-%d", m.Key.Proto, m.Key.Domain, int(m.Period+0.5))
}

// PeriodicConfig tunes periodic model inference and classification.
type PeriodicConfig struct {
	// Detector configures DFT+autocorrelation period mining.
	Detector dsp.DetectorConfig
	// TimerTolerance is the fraction of the period within which a flow's
	// inter-arrival time counts as on-schedule for the timer labeler.
	TimerTolerance float64
	// ClusterEps and ClusterMinPts configure the DBSCAN fallback.
	ClusterEps    float64
	ClusterMinPts int
	// MinFlows is the minimum group size to attempt period inference.
	MinFlows int
}

// DefaultPeriodicConfig returns the pipeline defaults.
func DefaultPeriodicConfig() PeriodicConfig {
	return PeriodicConfig{
		Detector:       dsp.DefaultDetectorConfig(),
		TimerTolerance: 0.25,
		ClusterEps:     1.5,
		ClusterMinPts:  4,
		MinFlows:       4,
	}
}

// InferPeriodicModels mines periodic models from (idle) training flows,
// returning one model per traffic group that exhibits validated
// periodicity, plus the set of group keys that did not.
func InferPeriodicModels(training []*flows.Flow, cfg PeriodicConfig) (map[flows.GroupKey]*PeriodicModel, []flows.GroupKey) {
	groups := flows.GroupByKey(training)
	models := make(map[flows.GroupKey]*PeriodicModel)
	var aperiodic []flows.GroupKey
	for key, fs := range groups {
		ts := make([]float64, len(fs))
		for i, f := range fs {
			ts[i] = float64(f.Start.UnixNano()) / 1e9
		}
		results := dsp.DetectPeriods(ts, cfg.Detector)
		if len(results) == 0 {
			aperiodic = append(aperiodic, key)
			continue
		}
		m := &PeriodicModel{
			Key:        key,
			Period:     results[0].Period,
			ACF:        results[0].ACF,
			AllPeriods: results,
			FlowCount:  len(fs),
		}
		// Train the DBSCAN fallback on the group's normalized features.
		// Large groups are spread-subsampled: periodic traffic is highly
		// regular, so a few hundred samples describe the clusters, and
		// DBSCAN's O(n²) fit would otherwise dominate training time.
		sample := fs
		const maxClusterTraining = 400
		if len(sample) > maxClusterTraining {
			step := len(sample) / maxClusterTraining
			sub := make([]*flows.Flow, 0, maxClusterTraining+1)
			for i := 0; i < len(sample); i += step {
				sub = append(sub, sample[i])
			}
			sample = sub
		}
		vecs := make([][]float64, len(sample))
		for i, f := range sample {
			vecs[i] = features.Extract(f)
		}
		m.norm = features.FitNormalizer(vecs)
		normed := m.norm.ApplyAll(vecs)
		// The neighborhood radius adapts to the group: in d standardized
		// dimensions, same-cluster points sit ≈ √(2·d_effective) apart,
		// so a fixed Eps would misbehave across groups with different
		// intrinsic jitter. Use a multiple of the median nearest-neighbor
		// distance, floored by the configured minimum.
		eps := adaptiveEps(normed, cfg.ClusterEps)
		m.cluster = dbscan.Train(normed, dbscan.Config{
			Eps: eps, MinPts: cfg.ClusterMinPts,
		})
		models[key] = m
	}
	sort.Slice(aperiodic, func(i, j int) bool {
		return groupKeyLess(aperiodic[i], aperiodic[j])
	})
	return models, aperiodic
}

// adaptiveEps returns 3× the median nearest-neighbor distance of the
// normalized training points, floored at minEps. Identical points (median
// 0) fall back to minEps.
func adaptiveEps(points [][]float64, minEps float64) float64 {
	n := len(points)
	if n < 2 {
		return minEps
	}
	nn := make([]float64, n)
	for i := range points {
		best := math.Inf(1)
		for j := range points {
			if i == j {
				continue
			}
			if d := dbscan.EuclideanDist(points[i], points[j]); d < best {
				best = d
			}
		}
		nn[i] = best
	}
	sort.Float64s(nn)
	eps := 3 * nn[n/2]
	if eps < minEps {
		eps = minEps
	}
	return eps
}

func groupKeyLess(a, b flows.GroupKey) bool {
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	if a.Domain != b.Domain {
		return a.Domain < b.Domain
	}
	return a.Proto < b.Proto
}

// PeriodicClassifier labels flows as periodic events using the paper's
// two-stage scheme: a timer for flows arriving on schedule, then DBSCAN
// cluster membership for the remainder. It is stateful: feed flows of a
// group in chronological order.
type PeriodicClassifier struct {
	cfg    PeriodicConfig
	models map[flows.GroupKey]*PeriodicModel
	last   map[flows.GroupKey]time.Time
	// DisableCluster turns off the DBSCAN stage (timer-only ablation).
	DisableCluster bool
	// DisableTimer turns off the timer stage (cluster-only ablation).
	DisableTimer bool
}

// NewPeriodicClassifier builds a classifier over trained models.
func NewPeriodicClassifier(models map[flows.GroupKey]*PeriodicModel, cfg PeriodicConfig) *PeriodicClassifier {
	return &PeriodicClassifier{
		cfg:    cfg,
		models: models,
		last:   make(map[flows.GroupKey]time.Time),
	}
}

// Models exposes the trained periodic models.
func (pc *PeriodicClassifier) Models() map[flows.GroupKey]*PeriodicModel { return pc.models }

// Classify reports whether the flow is a periodic event of its traffic
// group. It must be called in chronological flow order.
func (pc *PeriodicClassifier) Classify(f *flows.Flow) bool {
	key := f.Key()
	m, ok := pc.models[key]
	if !ok {
		return false
	}
	matched := false
	if !pc.DisableTimer {
		if lastT, seen := pc.last[key]; seen {
			dt := f.Start.Sub(lastT).Seconds()
			if dt > 0 && m.Period > 0 {
				k := math.Round(dt / m.Period)
				if k >= 1 {
					drift := math.Abs(dt - k*m.Period)
					if drift <= pc.cfg.TimerTolerance*m.Period {
						matched = true
					}
				}
			}
		} else {
			// First observation of the group: the timer has no anchor, so
			// rely on cluster membership below; if clustering is disabled,
			// accept it to seed the timer (the paper's timer also needs an
			// anchor event).
			if pc.DisableCluster {
				matched = true
			}
		}
	}
	if !matched && !pc.DisableCluster {
		v := m.norm.Apply(features.Extract(f))
		matched = m.cluster.Assign(v) != dbscan.Noise
	}
	if matched {
		pc.last[key] = f.Start
	}
	return matched
}

// Reset clears the timer anchors (e.g. between analysis windows).
func (pc *PeriodicClassifier) Reset() {
	pc.last = make(map[flows.GroupKey]time.Time)
}

// Fork returns a classifier that shares pc's trained models and
// configuration by pointer and starts from a copy of its timer anchors.
// The anchors are the only state Classify writes, so a fork classifies
// exactly as pc would from here on without ever writing to pc.
func (pc *PeriodicClassifier) Fork() *PeriodicClassifier {
	f := *pc
	f.last = maps.Clone(pc.last)
	return &f
}

// Anchors returns the timer anchors: each group's most recent periodic
// event time. The map is the classifier's own; callers must not modify it.
func (pc *PeriodicClassifier) Anchors() map[flows.GroupKey]time.Time { return pc.last }

// SetAnchors replaces the timer anchors, e.g. with ones restored from a
// snapshot. The classifier takes ownership of last, which must not be nil.
func (pc *PeriodicClassifier) SetAnchors(last map[flows.GroupKey]time.Time) { pc.last = last }
