package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanBasics(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{4}, 4},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if Min(xs) != -2 {
		t.Errorf("Min = %v, want -2", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v, want 7", Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("Min/Max of empty should be 0")
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if Median(nil) != 0 {
		t.Error("Median empty should be 0")
	}
	// Median must not mutate its input.
	xs := []float64{9, 1, 5}
	Median(xs)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Error("Median mutated its input")
	}
}

func TestMedianAbsDev(t *testing.T) {
	// median = 2, |x-2| = {1,1,0,2,6} → median 1
	xs := []float64{1, 1, 2, 4, 8}
	if got := MedianAbsDev(xs); got != 1 {
		t.Errorf("MedianAbsDev = %v, want 1", got)
	}
	if MedianAbsDev([]float64{5, 5, 5}) != 0 {
		t.Error("MAD of constant should be 0")
	}
}

func TestSkewnessSymmetry(t *testing.T) {
	if got := Skewness([]float64{1, 2, 3, 4, 5}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Skewness of symmetric = %v, want 0", got)
	}
	// Right-skewed data has positive skewness.
	if got := Skewness([]float64{1, 1, 1, 1, 10}); got <= 0 {
		t.Errorf("Skewness of right-skewed = %v, want > 0", got)
	}
	if Skewness([]float64{5, 5}) != 0 {
		t.Error("short input should give 0")
	}
	if Skewness([]float64{3, 3, 3, 3}) != 0 {
		t.Error("constant input should give 0")
	}
}

func TestKurtosis(t *testing.T) {
	// Uniform-ish data has negative excess kurtosis; heavy-tailed positive.
	flat := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if got := Kurtosis(flat); got >= 0 {
		t.Errorf("Kurtosis of flat = %v, want < 0", got)
	}
	heavy := []float64{0, 0, 0, 0, 0, 0, 0, 100}
	if got := Kurtosis(heavy); got <= 0 {
		t.Errorf("Kurtosis of heavy-tailed = %v, want > 0", got)
	}
	if Kurtosis([]float64{2, 2, 2, 2}) != 0 {
		t.Error("constant input should give 0")
	}
}

func TestBinomialZ(t *testing.T) {
	// Observed probability equals modeled: z = 0.
	if got := BinomialZ(0.5, 0.5, 100); got != 0 {
		t.Errorf("BinomialZ equal = %v, want 0", got)
	}
	// Higher observed probability: positive z growing with n.
	z10 := BinomialZ(0.6, 0.5, 10)
	z1000 := BinomialZ(0.6, 0.5, 1000)
	if z10 <= 0 || z1000 <= z10 {
		t.Errorf("BinomialZ should grow with n: z10=%v z1000=%v", z10, z1000)
	}
	// Known value: (0.6-0.5)/sqrt(0.25/100) = 0.1/0.05 = 2.
	if got := BinomialZ(0.6, 0.5, 100); !almostEqual(got, 2, 1e-12) {
		t.Errorf("BinomialZ = %v, want 2", got)
	}
	if got := BinomialZ(0.5, 0.5, 0); got != 0 {
		t.Errorf("BinomialZ n=0 = %v, want 0", got)
	}
	// p0 at boundary with differing p → ±Inf (never-seen transition).
	if got := BinomialZ(0.3, 0, 50); !math.IsInf(got, 1) {
		t.Errorf("BinomialZ p0=0 = %v, want +Inf", got)
	}
	if got := BinomialZ(0.3, 1, 50); !math.IsInf(got, -1) {
		t.Errorf("BinomialZ p0=1 = %v, want -Inf", got)
	}
	if got := BinomialZ(0, 0, 50); got != 0 {
		t.Errorf("BinomialZ p=p0=0 = %v, want 0", got)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999} {
		x := NormalQuantile(p)
		if got := 0.5 * (1 + math.Erf(x/math.Sqrt2)); !almostEqual(got, p, 1e-8) {
			t.Errorf("Φ(Φ⁻¹(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile boundaries should be ±Inf")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{3, 2, 1, 2})
	cases := []struct{ q, want float64 }{
		{0.1, 1}, {0.25, 1}, {0.26, 2}, {0.75, 2}, {0.76, 3},
	}
	for _, c := range cases {
		if got := e.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := e.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	if got := e.Quantile(1); got != 3 {
		t.Errorf("Quantile(1) = %v, want 3", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	empty := NewECDF(nil)
	if empty.Quantile(0.5) != 0 {
		t.Error("empty ECDF should return 0")
	}
}

func TestECDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewECDF(raw)
		prev := e.Quantile(0)
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 1} {
			v := e.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeanStdMatchesSeparate(t *testing.T) {
	f := func(raw []float64) bool {
		// Limit magnitude to keep the one-pass formula numerically stable.
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e6))
		}
		m, s := MeanStd(xs)
		return almostEqual(m, Mean(xs), 1e-6*(1+math.Abs(m))) &&
			almostEqual(s, math.Sqrt(Variance(xs)), 1e-4*(1+s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("P50 = %v, want 5", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Errorf("P100 = %v, want 10", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestQuantileECDFConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	e := NewECDF(xs)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		v := e.Quantile(q)
		atOrBelow := 0
		for _, x := range xs {
			if x <= v {
				atOrBelow++
			}
		}
		if frac := float64(atOrBelow) / float64(len(xs)); frac < q {
			t.Errorf("fraction <= Quantile(%v) is %v < %v", q, frac, q)
		}
	}
}
