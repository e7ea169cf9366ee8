// Package dsp implements the signal-processing primitives behind BehavIoT's
// periodic model inference (paper §4.1): a discrete Fourier transform to
// extract candidate periods from the power spectrum, and autocorrelation to
// validate them. The combination follows the structure of periodicity mining
// from Vlachos et al. [71] and Li et al. [46] as cited by the paper.
package dsp

import (
	"math"
	"math/cmplx"
)

// grow returns s resized to n elements, reusing its backing array when
// it is large enough. The contents are stale: callers overwrite them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// spectrum returns the periodogram |X_k|^2 / n for k = 0..n/2 of a real
// signal (only the non-redundant half, including DC at index 0), in a
// buffer the next call reuses.
func (d *Detector) spectrum(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	spec := d.transform(x)
	d.spec = grow(d.spec, n/2+1)
	for k := range d.spec {
		m := cmplx.Abs(spec[k])
		d.spec[k] = m * m / float64(n)
	}
	return d.spec
}

// transform returns the discrete Fourier transform of the real signal x,
// all len(x) bins, in a buffer the next call reuses. The length need not
// be a power of two: other lengths are transformed with the Bluestein
// chirp-z algorithm, which internally uses a power-of-two FFT.
func (d *Detector) transform(x []float64) []complex128 {
	n := len(x)
	if n&(n-1) != 0 {
		return d.bluestein(x)
	}
	d.a = grow(d.a, n)
	for i, v := range x {
		d.a[i] = complex(v, 0)
	}
	d.radix2(d.a)
	return d.a
}

// radix2 performs an in-place iterative Cooley-Tukey FFT. len(x) must be
// a power of two. The inverse transform is conj(radix2(conj(x))): IEEE
// rounding is symmetric under negation, so that equals, bit for bit, a
// butterfly pass over conjugated twiddles.
func (d *Detector) radix2(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := d.twiddles(n / 2)
	for length := 2; length < n; length <<= 1 {
		half := length / 2
		stage := tw[half-1 : length-1]
		for i := 0; i < n; i += length {
			lo, hi := x[i:i+half], x[i+half:i+length]
			for j, w := range stage {
				u := lo[j]
				v := hi[j] * w
				lo[j] = u + v
				hi[j] = u - v
			}
		}
	}
	// The last stage is a single block, so each of its twiddles is used
	// once: they come straight from the recurrence instead of a table as
	// large as every other stage's together.
	half := n / 2
	wl := twiddleStep(n)
	w := complex(1, 0)
	for j := 0; j < half; j++ {
		u := x[j]
		v := x[j+half] * w
		x[j] = u + v
		x[j+half] = u - v
		w *= wl
	}
}

// twiddleStep is the factor exp(-2πi/length) between successive
// twiddles of a radix-2 stage.
func twiddleStep(length int) complex128 {
	return cmplx.Exp(complex(0, -(2 * math.Pi / float64(length))))
}

// twiddles returns the twiddle table for the stages of length up to n:
// the stage of length L reads its L/2 factors at [L/2-1, L-1). Each
// stage is built by the recurrence w *= twiddleStep(L) from w = 1, so a
// table entry equals, bit for bit, the factor that recurrence reaches in
// every block. Stages never change once built; the table only grows.
func (d *Detector) twiddles(n int) []complex128 {
	if len(d.twiddle)+1 >= n {
		return d.twiddle
	}
	if cap(d.twiddle) < n-1 {
		d.twiddle = append(make([]complex128, 0, n-1), d.twiddle...)
	}
	for half := len(d.twiddle) + 1; half < n; half <<= 1 {
		wl := twiddleStep(2 * half)
		w := complex(1, 0)
		for j := 0; j < half; j++ {
			d.twiddle = append(d.twiddle, w)
			w *= wl
		}
	}
	return d.twiddle
}

// chirp is Bluestein's factor w[k] = exp(-i * pi * k^2 / n).
func chirp(k, n int) complex128 {
	// k^2 mod 2n avoids precision loss for large k.
	k2 := (int64(k) * int64(k)) % int64(2*n)
	return cmplx.Exp(complex(0, -math.Pi*float64(k2)/float64(n)))
}

// bluestein computes an arbitrary-length DFT of the real signal x via the
// chirp-z transform and returns it in d.a[:len(x)]. The chirp is
// computed twice rather than kept: a transform of a day of 1 s bins
// would hold 1.4 MB more per Detector.
func (d *Detector) bluestein(x []float64) []complex128 {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	d.a, d.b = grow(d.a, m), grow(d.b, m)
	a, b := d.a, d.b
	for k := 0; k < n; k++ {
		w := chirp(k, n)
		a[k] = complex(x[k], 0) * w
		b[k] = cmplx.Conj(w)
	}
	clear(a[n:])
	clear(b[n : m-n+1])
	for k := 1; k < n; k++ {
		b[m-k] = b[k]
	}
	d.radix2(a)
	d.radix2(b)
	// Convolve, then invert as conj(forward(conj(·))).
	for i := range a {
		a[i] = cmplx.Conj(a[i] * b[i])
	}
	d.radix2(a)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		a[k] = cmplx.Conj(a[k]) * scale * chirp(k, n)
	}
	return a[:n]
}
