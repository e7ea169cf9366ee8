package dbscan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blob generates n points around a center with the given spread.
func blob(rng *rand.Rand, cx, cy, spread float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread}
	}
	return out
}

func TestFitTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := append(blob(rng, 0, 0, 0.1, 50), blob(rng, 10, 10, 0.1, 50)...)
	res := Fit(pts, Config{Eps: 1, MinPts: 4})
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", res.NumClusters)
	}
	// All points in the first blob share a label distinct from the second.
	l0 := res.Labels[0]
	l1 := res.Labels[50]
	if l0 == l1 {
		t.Error("blobs merged")
	}
	for i := 0; i < 50; i++ {
		if res.Labels[i] != l0 {
			t.Fatalf("point %d of blob0 got label %d, want %d", i, res.Labels[i], l0)
		}
	}
	for i := 50; i < 100; i++ {
		if res.Labels[i] != l1 {
			t.Fatalf("point %d of blob1 got label %d, want %d", i, res.Labels[i], l1)
		}
	}
}

func TestFitNoiseDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := blob(rng, 0, 0, 0.1, 30)
	pts = append(pts, []float64{100, 100}) // isolated outlier
	res := Fit(pts, Config{Eps: 1, MinPts: 4})
	if res.Labels[30] != Noise {
		t.Errorf("outlier label = %d, want Noise", res.Labels[30])
	}
	if res.NumClusters != 1 {
		t.Errorf("NumClusters = %d, want 1", res.NumClusters)
	}
}

func TestFitAllNoise(t *testing.T) {
	// Points spread far apart with high MinPts: everything is noise.
	pts := [][]float64{{0, 0}, {10, 0}, {20, 0}, {30, 0}}
	res := Fit(pts, Config{Eps: 1, MinPts: 3})
	for i, l := range res.Labels {
		if l != Noise {
			t.Errorf("point %d label = %d, want Noise", i, l)
		}
	}
	if res.NumClusters != 0 {
		t.Errorf("NumClusters = %d, want 0", res.NumClusters)
	}
}

func TestFitEmpty(t *testing.T) {
	res := Fit(nil, Config{Eps: 1, MinPts: 3})
	if res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Error("empty input should produce empty result")
	}
}

func TestFitSinglePointMinPts1(t *testing.T) {
	res := Fit([][]float64{{1, 2}}, Config{Eps: 0.5, MinPts: 1})
	if res.NumClusters != 1 || res.Labels[0] != 0 {
		t.Errorf("single point with MinPts=1 should form a cluster, got %+v", res)
	}
}

func TestBorderPointJoinsCluster(t *testing.T) {
	// A chain where the endpoint is within Eps of a core point but has too
	// few neighbors itself: it should become a border member, not noise.
	pts := [][]float64{{0, 0}, {0.5, 0}, {1, 0}, {1.5, 0}, {3, 0}}
	res := Fit(pts, Config{Eps: 1.6, MinPts: 4})
	if res.Labels[4] == Noise {
		t.Error("border point misclassified as noise")
	}
}

func TestTrainAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := append(blob(rng, 0, 0, 0.1, 40), blob(rng, 5, 5, 0.1, 40)...)
	m := Train(pts, Config{Eps: 0.8, MinPts: 4})
	if m.num != 2 {
		t.Fatalf("clusters = %d, want 2", m.num)
	}
	// New points near each blob get that blob's label; distant points get Noise.
	a := m.Assign([]float64{0.05, -0.05})
	b := m.Assign([]float64{5.05, 4.95})
	if a == Noise || b == Noise || a == b {
		t.Errorf("Assign results a=%d b=%d", a, b)
	}
	if got := m.Assign([]float64{50, 50}); got != Noise {
		t.Errorf("distant point assigned to %d, want Noise", got)
	}
	if len(m.points) == 0 {
		t.Error("model retained no core points")
	}
}

func TestAssignPicksNearestCluster(t *testing.T) {
	// Overlapping Eps ranges: Assign must pick the closer core point.
	pts := [][]float64{
		{0, 0}, {0.1, 0}, {0.2, 0}, // cluster A
		{2, 0}, {2.1, 0}, {2.2, 0}, // cluster B
	}
	m := Train(pts, Config{Eps: 0.3, MinPts: 2})
	if m.num != 2 {
		t.Fatalf("clusters = %d, want 2", m.num)
	}
	la := m.Assign([]float64{0.15, 0})
	lb := m.Assign([]float64{2.15, 0})
	if la == lb {
		t.Error("Assign should distinguish the two clusters")
	}
}

func TestEuclideanDist(t *testing.T) {
	if d := EuclideanDist([]float64{0, 0}, []float64{3, 4}); d != 5 {
		t.Errorf("dist = %v, want 5", d)
	}
	if d := EuclideanDist([]float64{1}, []float64{1}); d != 0 {
		t.Errorf("dist = %v, want 0", d)
	}
}

func TestLabelsAreContiguousProperty(t *testing.T) {
	// Property: labels form a contiguous range 0..NumClusters-1 ∪ {Noise},
	// and every cluster id in range appears at least once.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		res := Fit(pts, Config{Eps: 0.5 + rng.Float64(), MinPts: 2 + rng.Intn(4)})
		seen := make(map[int]bool)
		for _, l := range res.Labels {
			if l != Noise && (l < 0 || l >= res.NumClusters) {
				return false
			}
			seen[l] = true
		}
		for c := 0; c < res.NumClusters; c++ {
			if !seen[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := blob(rng, 0, 0, 2, 100)
	cfg := Config{Eps: 0.7, MinPts: 3}
	a := Fit(pts, cfg)
	b := Fit(pts, cfg)
	if a.NumClusters != b.NumClusters {
		t.Fatal("non-deterministic cluster count")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("non-deterministic labels")
		}
	}
}

func TestHighDimensional(t *testing.T) {
	// The feature vectors in BehavIoT are 21-dimensional; sanity-check a
	// 21-d clustering.
	rng := rand.New(rand.NewSource(4))
	mk := func(center float64, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			v := make([]float64, 21)
			for d := range v {
				v[d] = center + rng.NormFloat64()*0.05
			}
			out[i] = v
		}
		return out
	}
	pts := append(mk(0, 30), mk(3, 30)...)
	res := Fit(pts, Config{Eps: 1, MinPts: 4})
	if res.NumClusters != 2 {
		t.Errorf("21-d NumClusters = %d, want 2", res.NumClusters)
	}
}

func BenchmarkFit500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := append(blob(rng, 0, 0, 0.5, 250), blob(rng, 10, 10, 0.5, 250)...)
	cfg := Config{Eps: 1, MinPts: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(pts, cfg)
	}
}

func BenchmarkAssign(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := blob(rng, 0, 0, 0.5, 500)
	m := Train(pts, Config{Eps: 1, MinPts: 4})
	p := []float64{0.2, math.Pi / 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Assign(p)
	}
}
