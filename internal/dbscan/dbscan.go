// Package dbscan implements the DBSCAN density-based clustering algorithm
// (Ester et al., KDD 1996) used by BehavIoT to classify periodic events
// whose timing drifts away from pure timer predictions (paper §4.1).
//
// Beyond the classical fit, the package supports assigning new points to
// clusters learned from training data: a new point joins a cluster when it
// lies within Eps of any of the cluster's core points. This mirrors how the
// paper labels future periodic traffic with clusters trained on idle data.
package dbscan

import (
	"math"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Config holds DBSCAN parameters.
type Config struct {
	// Eps is the neighborhood radius.
	Eps float64
	// MinPts is the minimum neighborhood size (including the point itself)
	// for a point to be a core point.
	MinPts int
}

// Result is the outcome of clustering.
type Result struct {
	// Labels assigns each input point a cluster id in [0, NumClusters) or
	// Noise.
	Labels []int
	// NumClusters is the number of clusters found.
	NumClusters int
	// core[i] reports whether point i is a core point.
	core []bool
}

// Model is a trained DBSCAN clustering that can classify new points.
type Model struct {
	cfg    Config
	points [][]float64 // core points only
	labels []int       // cluster label per core point
	num    int
}

// EuclideanDist returns the L2 distance between two equal-length vectors.
func EuclideanDist(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Fit clusters the given points. Points must all share the same dimension.
// The implementation is the textbook region-query algorithm with an
// explicit seed queue; complexity is O(n²) distance computations, which is
// adequate for the per-device flow groups BehavIoT clusters (tens to a few
// thousand flows).
func Fit(points [][]float64, cfg Config) *Result {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	res := &Result{Labels: labels, core: make([]bool, n)}
	if n == 0 {
		return res
	}
	if cfg.MinPts < 1 {
		cfg.MinPts = 1
	}
	visited := make([]bool, n)
	cluster := 0
	var neighbors func(i int) []int
	neighbors = func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if EuclideanDist(points[i], points[j]) <= cfg.Eps {
				out = append(out, j)
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb := neighbors(i)
		if len(nb) < cfg.MinPts {
			continue // remains noise unless reached from a core point
		}
		res.core[i] = true
		labels[i] = cluster
		queue := append([]int(nil), nb...)
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			if labels[j] == Noise {
				labels[j] = cluster // border point
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			labels[j] = cluster
			nbj := neighbors(j)
			if len(nbj) >= cfg.MinPts {
				res.core[j] = true
				queue = append(queue, nbj...)
			}
		}
		cluster++
	}
	res.NumClusters = cluster
	return res
}

// Train fits DBSCAN on points and returns a Model retaining only the core
// points, which is sufficient (and much smaller) for classifying new data.
func Train(points [][]float64, cfg Config) *Model {
	res := Fit(points, cfg)
	m := &Model{cfg: cfg, num: res.NumClusters}
	for i, isCore := range res.core {
		if isCore {
			m.points = append(m.points, points[i])
			m.labels = append(m.labels, res.Labels[i])
		}
	}
	return m
}

// Assign returns the cluster id for a new point, or Noise when the point is
// not within Eps of any core point. This implements the paper's labeling of
// future flows against clusters trained on idle traffic.
func (m *Model) Assign(p []float64) int {
	best := Noise
	bestDist := math.Inf(1)
	for i, cp := range m.points {
		d := EuclideanDist(cp, p)
		if d <= m.cfg.Eps && d < bestDist {
			bestDist = d
			best = m.labels[i]
		}
	}
	return best
}
