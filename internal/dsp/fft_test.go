package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference implementation used to validate the FFT.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func complexClose(a, b []complex128, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}

func TestFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 64, 100} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got := FFT(x)
		want := naiveDFT(x)
		if !complexClose(got, want, 1e-8*float64(n)) {
			t.Errorf("n=%d: FFT does not match naive DFT", n)
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if FFT(nil) != nil {
		t.Error("FFT(nil) should be nil")
	}
	out := FFT([]complex128{complex(3, 1)})
	if len(out) != 1 || cmplx.Abs(out[0]-complex(3, 1)) > 1e-12 {
		t.Errorf("FFT of singleton = %v", out)
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	FFT(x)
	if x[0] != 1 || x[3] != 4 {
		t.Error("FFT mutated its input")
	}
	y := []complex128{1, 2, 3} // Bluestein path
	FFT(y)
	if y[0] != 1 || y[2] != 3 {
		t.Error("FFT (Bluestein) mutated its input")
	}
}

func TestIFFTRoundTrip(t *testing.T) {
	// Bluestein's convolution runs the inverse radix-2 transform, which
	// must undo the forward one up to the 1/n scale it leaves out.
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 8, 64, 128} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		back := append([]complex128(nil), x...)
		radix2(back, false)
		radix2(back, true)
		for i := range back {
			back[i] /= complex(float64(n), 0)
		}
		if !complexClose(back, x, 1e-8*float64(n)) {
			t.Errorf("n=%d: inverse(forward(x))/n != x", n)
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(re1, re2 [8]float64, scale float64) bool {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 1e6 {
			return true
		}
		a := make([]complex128, 8)
		b := make([]complex128, 8)
		sum := make([]complex128, 8)
		for i := 0; i < 8; i++ {
			r1 := math.Mod(re1[i], 1e3)
			r2 := math.Mod(re2[i], 1e3)
			if math.IsNaN(r1) {
				r1 = 0
			}
			if math.IsNaN(r2) {
				r2 = 0
			}
			a[i] = complex(r1, 0)
			b[i] = complex(r2, 0)
			sum[i] = a[i] + complex(scale, 0)*b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for i := range fs {
			want := fa[i] + complex(scale, 0)*fb[i]
			tol := 1e-6 * (1 + cmplx.Abs(want))
			if cmplx.Abs(fs[i]-want) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Energy in time domain equals energy in frequency domain / n.
	rng := rand.New(rand.NewSource(99))
	x := make([]complex128, 128)
	var timeEnergy float64
	for i := range x {
		v := rng.NormFloat64()
		x[i] = complex(v, 0)
		timeEnergy += v * v
	}
	spec := FFT(x)
	var freqEnergy float64
	for _, s := range spec {
		freqEnergy += real(s)*real(s) + imag(s)*imag(s)
	}
	freqEnergy /= float64(len(x))
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Errorf("Parseval violated: time=%v freq=%v", timeEnergy, freqEnergy)
	}
}

func TestPowerSpectrumSinusoid(t *testing.T) {
	// A pure sinusoid at bin k should concentrate power at index k.
	n := 256
	k := 16
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(k) * float64(i) / float64(n))
	}
	spec := PowerSpectrum(x)
	best := 0
	for i := 1; i < len(spec); i++ {
		if spec[i] > spec[best] {
			best = i
		}
	}
	if best != k {
		t.Errorf("dominant bin = %d, want %d", best, k)
	}
	if PowerSpectrum(nil) != nil {
		t.Error("PowerSpectrum(nil) should be nil")
	}
}

func TestAutocorrelationPeriodicSignal(t *testing.T) {
	// Period-10 impulse train: ACF must peak at lag 10.
	n := 500
	x := make([]float64, n)
	for i := 0; i < n; i += 10 {
		x[i] = 1
	}
	if r := acfAtLag(x, 10); r < 0.9 {
		t.Errorf("ACF[10] = %v, want ~1 for period-10 signal", r)
	}
	if r := acfAtLag(x, 5); r > 0.3 {
		t.Errorf("ACF[5] = %v, should be low off-period", r)
	}
}

func TestAutocorrelationConstantSignal(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5}
	for lag := 1; lag < len(x); lag++ {
		if v := acfAtLag(x, lag); v != 0 {
			t.Errorf("ACF[%d] = %v for constant signal, want 0", lag, v)
		}
	}
}

func TestAutocorrelationEdgeCases(t *testing.T) {
	// Lags outside [1, n) carry no signal and score 0.
	if acfAtLag(nil, 5) != 0 {
		t.Error("nil input should give 0")
	}
	if acfAtLag([]float64{1, 2, 3}, 0) != 0 || acfAtLag([]float64{1, 2, 3}, -1) != 0 {
		t.Error("non-positive lag should give 0")
	}
	if acfAtLag([]float64{1, 2, 3}, 3) != 0 {
		t.Error("lag >= n should give 0")
	}
}

func TestAutocorrelationMatchesDirect(t *testing.T) {
	// Validate the single-lag ACF against the textbook definition.
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	var denom float64
	for _, v := range x {
		denom += (v - mean) * (v - mean)
	}
	for lag := 1; lag <= 20; lag++ {
		var num float64
		for i := 0; i+lag < len(x); i++ {
			num += (x[i] - mean) * (x[i+lag] - mean)
		}
		want := num / denom
		if got := acfAtLag(x, lag); math.Abs(got-want) > 1e-9 {
			t.Errorf("lag %d: got %v want %v", lag, got, want)
		}
	}
}
