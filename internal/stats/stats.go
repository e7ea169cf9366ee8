// Package stats provides the statistical primitives used throughout
// BehavIoT: descriptive moments for flow features (Table 8 of the paper),
// the binomial significance test and normal quantile for the long-term
// deviation metric, and empirical CDFs and percentiles for reporting the
// deviation distributions (Fig. 4).
//
// All functions operate on float64 slices and never mutate their inputs
// unless documented otherwise.
package stats

import (
	"math"
	"sort"

	"behaviot/internal/floatcmp"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the smallest element of xs, or 0 for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Variance returns the population variance of xs (dividing by n, not n-1).
// It returns 0 when xs has fewer than two elements.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return ss / float64(n)
}

// Median returns the median of xs without mutating it.
// It returns 0 for empty input.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// MedianAbsDev returns the median absolute deviation of xs: the median of
// |x - median(xs)|. This is the medAbsDev feature of Table 8.
func MedianAbsDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return Median(devs)
}

// Skewness returns the sample skewness (third standardized moment) of xs.
// Constant or short inputs yield 0.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	mu := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - mu
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if floatcmp.IsZero(m2) {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Kurtosis returns the sample excess kurtosis (fourth standardized moment
// minus 3) of xs. Constant or short inputs yield 0.
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return 0
	}
	mu := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - mu
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	if floatcmp.IsZero(m2) {
		return 0
	}
	return m4/(m2*m2) - 3
}

// BinomialZ computes the z statistic used by the long-term deviation metric
// (paper §4.3): z = (p - p0) / sqrt(p0 (1-p0) / n), where p is the observed
// transition probability in the new window, p0 the modeled probability, and
// n the number of trials (occurrences of the source state).
//
// Degenerate cases (n == 0, or p0 at 0/1 with matching p) return 0; p0 at
// 0/1 with differing p returns ±Inf, signaling a transition that was never
// (or always) observed during training.
func BinomialZ(p, p0 float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	denom := math.Sqrt(p0 * (1 - p0) / float64(n))
	if floatcmp.IsZero(denom) {
		if floatcmp.ApproxEqual(p, p0) {
			return 0
		}
		return math.Inf(sign(p - p0))
	}
	return (p - p0) / denom
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// NormalQuantile returns Φ⁻¹(p) for p in (0,1) using the
// Acklam rational approximation (relative error < 1.15e-9).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the Acklam approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	switch {
	//lint:ignore floateq plow is the Acklam approximation's published piecewise breakpoint; the adjacent branches agree to approximation accuracy at the boundary
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// ECDF is an empirical cumulative distribution function built from a sample.
// The zero value is unusable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Quantile returns the smallest sample value v such that at least a
// fraction q of the sample is <= v.
// q is clamped to [0,1]. Empty ECDFs return 0.
func (e *ECDF) Quantile(q float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return e.sorted[idx]
}

// MeanStd returns both the mean and the population standard deviation of xs
// in a single pass.
func MeanStd(xs []float64) (mean, std float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	v := sumSq/float64(n) - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v)
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using nearest-
// rank on a sorted copy. Empty input returns 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if p <= 0 {
		return tmp[0]
	}
	if p >= 100 {
		return tmp[len(tmp)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(tmp)))) - 1
	if rank < 0 {
		rank = 0
	}
	return tmp[rank]
}
