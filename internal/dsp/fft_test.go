package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
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

// naiveReal is naiveDFT of a real signal.
func naiveReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return naiveDFT(cx)
}

func TestFFTMatchesNaive(t *testing.T) {
	// One Detector across every length, longest first in places, so
	// stale buffer tails and a grown twiddle table are exercised too.
	rng := rand.New(rand.NewSource(42))
	var d Detector
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 100, 16, 17, 31, 32, 64, 33} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if got, want := d.transform(x), naiveReal(x); !complexClose(got, want, 1e-8*float64(n)) {
			t.Errorf("n=%d: FFT does not match naive DFT", n)
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	var d Detector
	if d.spectrum(nil) != nil {
		t.Error("spectrum(nil) should be nil")
	}
	out := d.transform([]float64{3})
	if len(out) != 1 || cmplx.Abs(out[0]-3) > 1e-12 {
		t.Errorf("FFT of singleton = %v", out)
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	var d Detector
	x := []float64{1, 2, 3, 4}
	d.transform(x)
	if x[0] != 1 || x[3] != 4 {
		t.Error("FFT mutated its input")
	}
	y := []float64{1, 2, 3} // Bluestein path
	d.transform(y)
	if y[0] != 1 || y[2] != 3 {
		t.Error("FFT (Bluestein) mutated its input")
	}
}

func TestIFFTRoundTrip(t *testing.T) {
	// Bluestein's convolution inverts as conj(radix2(conj(·))), which
	// must undo the forward transform up to the 1/n scale it leaves out.
	rng := rand.New(rand.NewSource(7))
	var d Detector
	for _, n := range []int{1, 2, 8, 64, 128} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		back := append([]complex128(nil), x...)
		d.radix2(back)
		for i := range back {
			back[i] = cmplx.Conj(back[i])
		}
		d.radix2(back)
		for i := range back {
			back[i] = cmplx.Conj(back[i]) / complex(float64(n), 0)
		}
		if !complexClose(back, x, 1e-8*float64(n)) {
			t.Errorf("n=%d: inverse(forward(x))/n != x", n)
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	var d Detector
	f := func(re1, re2 [8]float64, scale float64) bool {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 1e6 {
			return true
		}
		a := make([]float64, 8)
		b := make([]float64, 8)
		sum := make([]float64, 8)
		for i := 0; i < 8; i++ {
			r1 := math.Mod(re1[i], 1e3)
			r2 := math.Mod(re2[i], 1e3)
			if math.IsNaN(r1) {
				r1 = 0
			}
			if math.IsNaN(r2) {
				r2 = 0
			}
			a[i] = r1
			b[i] = r2
			sum[i] = a[i] + scale*b[i]
		}
		fa := slices.Clone(d.transform(a))
		fb := slices.Clone(d.transform(b))
		fs := d.transform(sum)
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
	// Energy in time domain equals energy in frequency domain / n, on
	// the Bluestein path (n = 100) and the power-of-two one (n = 128).
	rng := rand.New(rand.NewSource(99))
	var d Detector
	for _, n := range []int{100, 128} {
		x := make([]float64, n)
		var timeEnergy float64
		for i := range x {
			x[i] = rng.NormFloat64()
			timeEnergy += x[i] * x[i]
		}
		var freqEnergy float64
		for _, s := range d.transform(x) {
			freqEnergy += real(s)*real(s) + imag(s)*imag(s)
		}
		freqEnergy /= float64(n)
		if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
			t.Errorf("n=%d: Parseval violated: time=%v freq=%v", n, timeEnergy, freqEnergy)
		}
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
	var d Detector
	spec := d.spectrum(x)
	best := 0
	for i := 1; i < len(spec); i++ {
		if spec[i] > spec[best] {
			best = i
		}
	}
	if best != k {
		t.Errorf("dominant bin = %d, want %d", best, k)
	}
}

// acfOf centres x unsmoothed and scores it at lag, as Detect does for a
// width-1 candidate.
func acfOf(x []float64, lag int) float64 {
	var d Detector
	return acf(d.centred, d.centre(x, 1), lag)
}

func TestAutocorrelationPeriodicSignal(t *testing.T) {
	// Period-10 impulse train: ACF must peak at lag 10.
	n := 500
	x := make([]float64, n)
	for i := 0; i < n; i += 10 {
		x[i] = 1
	}
	if r := acfOf(x, 10); r < 0.9 {
		t.Errorf("ACF[10] = %v, want ~1 for period-10 signal", r)
	}
	if r := acfOf(x, 5); r > 0.3 {
		t.Errorf("ACF[5] = %v, should be low off-period", r)
	}
}

func TestAutocorrelationConstantSignal(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5}
	for lag := 1; lag < len(x); lag++ {
		if v := acfOf(x, lag); v != 0 {
			t.Errorf("ACF[%d] = %v for constant signal, want 0", lag, v)
		}
	}
}

func TestAutocorrelationEdgeCases(t *testing.T) {
	// Lags outside [1, n) carry no signal and score 0.
	if acf(nil, 1, 5) != 0 {
		t.Error("nil input should give 0")
	}
	if acfOf([]float64{1, 2, 3}, 0) != 0 || acfOf([]float64{1, 2, 3}, -1) != 0 {
		t.Error("non-positive lag should give 0")
	}
	if acfOf([]float64{1, 2, 3}, 3) != 0 {
		t.Error("lag >= n should give 0")
	}
}

func TestAutocorrelationMatchesDirect(t *testing.T) {
	// Validate the single-lag ACF against the textbook definition, on a
	// raw signal (width 1) and a box-smoothed one.
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var d Detector
	for _, width := range []int{1, 5} {
		s := make([]float64, len(x))
		boxSmooth(s, x, width)
		mean := 0.0
		for _, v := range s {
			mean += v
		}
		mean /= float64(len(s))
		var denom float64
		for _, v := range s {
			denom += (v - mean) * (v - mean)
		}
		c := d.centre(x, width)
		for lag := 1; lag <= 20; lag++ {
			var num float64
			for i := 0; i+lag < len(s); i++ {
				num += (s[i] - mean) * (s[i+lag] - mean)
			}
			want := num / denom
			if got := acf(d.centred, c, lag); math.Abs(got-want) > 1e-9 {
				t.Errorf("width %d lag %d: got %v want %v", width, lag, got, want)
			}
		}
	}
}
