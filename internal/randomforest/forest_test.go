package randomforest

import (
	"errors"
	"math/rand"
	"testing"
)

// twoGaussians builds a linearly separable two-class dataset.
func twoGaussians(rng *rand.Rand, n int) (X [][]float64, y []int) {
	for i := 0; i < n; i++ {
		cls := i % 2
		center := float64(cls) * 4
		X = append(X, []float64{
			center + rng.NormFloat64(),
			center + rng.NormFloat64(),
			rng.NormFloat64(), // noise feature
		})
		y = append(y, cls)
	}
	return X, y
}

// predict is the majority vote over Forest.Proba, the call the
// multiclass user-action path makes.
func predict(f *Forest, x []float64) int {
	p := f.Proba(x)
	best := 0
	for c := 1; c < len(p); c++ {
		if p[c] > p[best] {
			best = c
		}
	}
	return best
}

func accuracy(f *Forest, X [][]float64, y []int) float64 {
	correct := 0
	for i, x := range X {
		if predict(f, x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

// depth is the longest root-to-leaf path (a root-only tree has depth 0).
func depth(n *node) int {
	if n == nil || n.isLeaf {
		return 0
	}
	return 1 + max(depth(n.left), depth(n.right))
}

func TestTrainSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := twoGaussians(rng, 200)
	f, err := Train(X, y, Config{NumTrees: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := twoGaussians(rand.New(rand.NewSource(2)), 100)
	if acc := accuracy(f, Xt, yt); acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95", acc)
	}
	if n := len(f.Proba(Xt[0])); n != 2 {
		t.Errorf("Proba over %d classes, want 2", n)
	}
	if len(f.trees) != 30 {
		t.Errorf("trees = %d, want 30", len(f.trees))
	}
}

func TestTrainMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		cls := i % 3
		X = append(X, []float64{
			float64(cls)*5 + rng.NormFloat64()*0.5,
			float64(cls)*-3 + rng.NormFloat64()*0.5,
		})
		y = append(y, cls)
	}
	f, err := Train(X, y, Config{NumTrees: 25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(f, X, y); acc < 0.98 {
		t.Errorf("train accuracy = %v, want >= 0.98", acc)
	}
	p := f.Proba([]float64{5, -3})
	if len(p) != 3 {
		t.Fatalf("Proba length = %d, want 3", len(p))
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("Proba sums to %v, want 1", sum)
	}
	if got := predict(f, []float64{5, -3}); got != 1 {
		t.Errorf("vote at center of class 1 = %d", got)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty: err = %v", err)
	}
	if _, err := Train([][]float64{{1}}, []int{0, 1}, Config{}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("mismatch: err = %v", err)
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{0, -1}, Config{}); !errors.Is(err, ErrInvalidLabel) {
		t.Errorf("negative label: err = %v", err)
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []int{0, 1}, Config{}); !errors.Is(err, ErrUnevenFeatures) {
		t.Errorf("uneven: err = %v", err)
	}
	if _, err := Train([][]float64{{}, {}}, []int{0, 1}, Config{}); !errors.Is(err, ErrNoFeatures) {
		t.Errorf("zero-width: err = %v", err)
	}
}

func TestDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := twoGaussians(rng, 100)
	f1, _ := Train(X, y, Config{NumTrees: 10, Seed: 42})
	f2, _ := Train(X, y, Config{NumTrees: 10, Seed: 42})
	probe := []float64{1.7, 2.2, 0}
	p1, p2 := f1.Proba(probe), f2.Proba(probe)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different forests")
		}
	}
}

func TestSingleClassDegenerates(t *testing.T) {
	// All samples one class: forest must predict that class everywhere.
	X := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	y := []int{0, 0, 0}
	f, err := Train(X, y, Config{NumTrees: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := predict(f, []float64{100, -100}); got != 0 {
		t.Errorf("vote = %d, want 0", got)
	}
}

func TestConstantFeatures(t *testing.T) {
	// No split can separate identical rows with different labels; the
	// forest must still train without panicking.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 1, 0, 1}
	f, err := Train(X, y, Config{NumTrees: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Proba([]float64{1, 1})
}

func TestTreeDepthBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := twoGaussians(rng, 300)
	f, err := Train(X, y, Config{NumTrees: 5, MaxDepth: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, tree := range f.trees {
		if d := depth(tree.root); d > 3 {
			t.Errorf("tree %d depth %d exceeds MaxDepth 3", i, d)
		}
	}
}

func TestMinLeafRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := twoGaussians(rng, 50)
	// Huge MinLeaf forces root-only trees.
	f, err := Train(X, y, Config{NumTrees: 3, MinLeaf: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range f.trees {
		if depth(tree.root) != 0 {
			t.Error("MinLeaf=100 on 50 samples should yield stumps of depth 0")
		}
	}
}

func TestBinaryEnsemble(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mk := func(cx, cy float64, n int) [][]float64 {
		var out [][]float64
		for i := 0; i < n; i++ {
			out = append(out, []float64{cx + rng.NormFloat64()*0.3, cy + rng.NormFloat64()*0.3})
		}
		return out
	}
	samples := map[string][][]float64{
		"bulb:on":    mk(0, 0, 40),
		"bulb:off":   mk(5, 0, 40),
		"plug:on":    mk(0, 5, 40),
		"cam:motion": mk(5, 5, 40),
	}
	be, err := TrainBinaryEnsemble(samples, Config{NumTrees: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(be.labels) != 4 {
		t.Fatalf("labels = %v", be.labels)
	}
	cases := map[string][]float64{
		"bulb:on":    {0.1, -0.1},
		"bulb:off":   {5.1, 0.2},
		"plug:on":    {-0.2, 5.1},
		"cam:motion": {4.9, 5.2},
	}
	for want, x := range cases {
		got, conf, ok := be.Predict(x)
		if !ok || got != want {
			t.Errorf("Predict(%v) = %q (conf %v, ok %v), want %q", x, got, conf, ok, want)
		}
	}
	// With an explicit background class (as the BehavIoT pipeline uses),
	// background-like points predict that class, which callers map to
	// rejection.
	withBg := map[string][][]float64{
		"bulb:on":    mk(0, 0, 40),
		"background": mk(2.5, 2.5, 40),
	}
	be2, err := TrainBinaryEnsemble(withBg, Config{NumTrees: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, _, ok := be2.Predict([]float64{2.5, 2.6}); !ok || got != "background" {
		t.Errorf("background point → %q (ok=%v), want background", got, ok)
	}
}

func TestBinaryEnsembleErrors(t *testing.T) {
	if _, err := TrainBinaryEnsemble(nil, Config{}); err == nil {
		t.Error("empty ensemble should error")
	}
	one := map[string][][]float64{"only": {{1, 2}}}
	if _, err := TrainBinaryEnsemble(one, Config{}); err == nil {
		t.Error("single-class ensemble should error")
	}
}

func TestBinaryEnsembleDeterministicLabelOrder(t *testing.T) {
	samples := map[string][][]float64{
		"z": {{0, 0}, {0.1, 0}},
		"a": {{5, 5}, {5.1, 5}},
		"m": {{-5, 5}, {-5.1, 5}},
	}
	be, err := TrainBinaryEnsemble(samples, Config{NumTrees: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "m", "z"}
	for i, l := range be.labels {
		if l != want[i] {
			t.Fatalf("labels = %v, want %v", be.labels, want)
		}
	}
}

func TestGiniProperties(t *testing.T) {
	if g := gini([]int{10, 0}, 10); g != 0 {
		t.Errorf("pure gini = %v, want 0", g)
	}
	if g := gini([]int{5, 5}, 10); g != 0.5 {
		t.Errorf("balanced binary gini = %v, want 0.5", g)
	}
	if g := gini([]int{0, 0}, 0); g != 0 {
		t.Errorf("empty gini = %v, want 0", g)
	}
}

func BenchmarkTrain200x21(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		row := make([]float64, 21)
		cls := i % 2
		for d := range row {
			row[d] = float64(cls)*2 + rng.NormFloat64()
		}
		X = append(X, row)
		y = append(y, cls)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, Config{NumTrees: 50, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProba(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X, y := twoGaussians(rng, 400)
	f, _ := Train(X, y, Config{NumTrees: 100, Seed: 1})
	probe := []float64{2, 2, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Proba(probe)
	}
}
