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

// FFT computes the discrete Fourier transform of x. The input length need
// not be a power of two: non-power-of-two inputs are transformed with the
// Bluestein chirp-z algorithm, which internally uses a power-of-two FFT.
// The input slice is not modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := append([]complex128(nil), x...)
		radix2(out, false)
		return out
	}
	return bluestein(x)
}

// radix2 performs an in-place iterative Cooley-Tukey FFT.
// len(x) must be a power of two. If inverse is true the conjugate
// transform is computed (without normalization).
func radix2(x []complex128, inverse bool) {
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
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT via the chirp-z transform.
func bluestein(x []complex128) []complex128 {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	// Chirp factors w[k] = exp(-i * pi * k^2 / n).
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k^2 mod 2n avoids precision loss for large k.
		k2 := (int64(k) * int64(k)) % int64(2*n)
		w[k] = cmplx.Exp(complex(0, -math.Pi*float64(k2)/float64(n)))
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	scale := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * w[k]
	}
	return out
}

// FFTReal transforms a real-valued signal, returning the full complex
// spectrum of the same length.
func FFTReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
}

// PowerSpectrum returns the periodogram |X_k|^2 / n for k = 0..n/2 of a
// real signal (only the non-redundant half, including DC at index 0).
func PowerSpectrum(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	spec := FFTReal(x)
	half := n/2 + 1
	out := make([]float64, half)
	for k := 0; k < half; k++ {
		m := cmplx.Abs(spec[k])
		out[k] = m * m / float64(n)
	}
	return out
}
