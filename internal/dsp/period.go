package dsp

import (
	"math"
	"slices"
	"sort"

	"behaviot/internal/floatcmp"
)

// PeriodResult describes one detected period in a point process.
type PeriodResult struct {
	// Period is the detected period in seconds.
	Period float64
	// Power is the spectral power of the corresponding frequency bin,
	// normalized by the mean spectral power (signal-to-noise ratio).
	Power float64
	// ACF is the autocorrelation score at the period's lag.
	ACF float64
}

// DetectorConfig tunes period detection. The zero value is not useful;
// start from DefaultDetectorConfig.
type DetectorConfig struct {
	// BinSeconds is the histogram bin width used to convert event
	// timestamps into a regularly sampled signal.
	BinSeconds float64
	// PowerSigma is the number of standard deviations above the mean
	// spectral power a frequency bin must reach to become a candidate
	// period (the "significant power in spectral density" test, §4.1).
	PowerSigma float64
	// ACFThreshold is the minimum autocorrelation score at the candidate
	// lag for the period to be validated (the "significant autocorrelation
	// score" test, §4.1).
	ACFThreshold float64
	// MinEvents is the minimum number of events needed to attempt
	// detection at all.
	MinEvents int
	// MaxPeriods caps how many distinct periods are reported per signal.
	MaxPeriods int
}

// DefaultDetectorConfig returns the configuration used throughout the
// reproduction: 1-second bins, 3-sigma spectral significance, 0.3
// autocorrelation threshold (periodic signals with jitter typically score
// 0.5-1.0; permuted/aperiodic signals score near 0).
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		BinSeconds:   1.0,
		PowerSigma:   3.0,
		ACFThreshold: 0.3,
		MinEvents:    4,
		MaxPeriods:   3,
	}
}

// Detector runs the paper's unsupervised periodicity test (see Detect)
// over buffers it keeps between calls, so mining many traffic groups
// allocates little beyond the results. The zero value is ready to use. A
// Detector is not safe for concurrent use: give each goroutine its own.
type Detector struct {
	ts      []float64      // sorted copy of the timestamps
	signal  []float64      // event counts per bin
	centred []float64      // box-smoothed signal minus its mean
	a, b    []complex128   // Bluestein's operands; a holds every transform's output
	twiddle []complex128   // radix-2 twiddles, see twiddles
	spec    []float64      // periodogram
	cands   []candidate    // spectral candidates
	seen    []int          // lags already validated
	found   []PeriodResult // validated periods before harmonic filtering
}

type candidate struct {
	lag   int
	power float64
}

// Detect implements the paper's unsupervised periodicity test on a point
// process: the event timestamps (seconds, sorted or not) are binned into
// a regular signal, candidate periods are extracted from frequency bins
// with significant spectral power, and each candidate is validated by its
// autocorrelation score. Validated periods are returned sorted by
// descending autocorrelation score, in a slice the caller owns. An empty
// result means the sequence is aperiodic. timestamps is not modified.
func (d *Detector) Detect(timestamps []float64, cfg DetectorConfig) []PeriodResult {
	if len(timestamps) < cfg.MinEvents {
		return nil
	}
	d.ts = append(d.ts[:0], timestamps...)
	ts := d.ts
	sort.Float64s(ts)
	span := ts[len(ts)-1] - ts[0]
	if span <= 0 {
		return nil
	}
	bin := cfg.BinSeconds
	if bin <= 0 {
		bin = 1.0
	}
	// Choose a bin size that keeps the signal length manageable while
	// retaining resolution: at most ~2^17 bins.
	const maxBins = 1 << 17
	if span/bin > maxBins {
		bin = span / maxBins
	}
	n := int(span/bin) + 1
	d.signal = grow(d.signal, n)
	signal := d.signal
	clear(signal)
	for _, t := range ts {
		idx := int((t - ts[0]) / bin)
		if idx >= n {
			idx = n - 1
		}
		signal[idx]++
	}

	// Stage 1: spectral candidates.
	spec := d.spectrum(signal)
	if len(spec) < 3 {
		return nil
	}
	// Exclude DC (k=0) from the significance statistics.
	body := spec[1:]
	var mean float64
	for _, p := range body {
		mean += p
	}
	mean /= float64(len(body))
	var ss float64
	for _, p := range body {
		e := p - mean
		ss += e * e
	}
	std := math.Sqrt(ss / float64(len(body)))
	thresh := mean + cfg.PowerSigma*std

	cands := d.cands[:0]
	sigLen := float64(len(signal))
	for k := 1; k < len(spec); k++ {
		if spec[k] <= thresh {
			continue
		}
		period := sigLen / float64(k) // in bins
		lag := int(math.Round(period))
		if lag < 2 || lag > len(signal)/2 {
			// Periods longer than half the observation window cannot be
			// confidently detected (paper §6.1 discusses this limit for
			// daily update checks vs. a 5-day idle capture).
			continue
		}
		cands = append(cands, candidate{lag: lag, power: spec[k]})
	}
	d.cands = cands
	if len(cands) == 0 {
		return nil
	}
	// Keep only the strongest spectral candidates: validation costs
	// O(signal × window) per candidate, and weak bins are almost always
	// harmonics or leakage of the strong ones.
	sort.Slice(cands, func(i, j int) bool { return cands[i].power > cands[j].power })
	const maxCandidates = 24
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}

	// Stage 2: autocorrelation validation. Real IoT heartbeats jitter by a
	// few percent of their period, which smears the impulse train across
	// neighboring bins and dilutes the exact-lag autocorrelation. Before
	// validating a candidate lag we therefore smooth the signal with a box
	// filter whose width is proportional to the candidate period, then
	// look for a local ACF peak within ±10% of the lag. The smoothed,
	// centred signal is rebuilt only when the width changes.
	out := d.found[:0]
	d.seen = d.seen[:0]
	width, denom := 0, 0.0
	for _, c := range cands {
		if w := max(c.lag/10, 1); w != width {
			width, denom = w, d.centre(signal, w)
		}
		sig := d.centred
		lo := c.lag - c.lag/10 - 1
		hi := c.lag + c.lag/10 + 1
		if lo < 1 {
			lo = 1
		}
		if hi > len(sig)-1 {
			hi = len(sig) - 1
		}
		// Each acf is O(n); sample the refinement window at ~25 points
		// rather than every lag (the smoothed ACF is flat at that
		// granularity, and large lags would otherwise cost O(n·lag/5)).
		step := (hi - lo) / 25
		if step < 1 {
			step = 1
		}
		best, bestScore := c.lag, math.Inf(-1)
		for l := lo; l <= hi; l += step {
			if r := acf(sig, denom, l); r > bestScore {
				bestScore = r
				best = l
			}
		}
		if bestScore < cfg.ACFThreshold || slices.Contains(d.seen, best) {
			continue
		}
		d.seen = append(d.seen, best)
		out = append(out, PeriodResult{
			Period: float64(best) * bin,
			Power:  c.power / math.Max(mean, 1e-12),
			ACF:    bestScore,
		})
	}
	d.found = out
	sort.Slice(out, func(i, j int) bool { return out[i].ACF > out[j].ACF })
	// Drop harmonics: a period that is an integer multiple of a stronger
	// detected period carries no independent information.
	filtered := out[:0]
	for _, r := range out {
		harmonic := false
		for _, kept := range filtered {
			ratio := r.Period / kept.Period
			nearInt := math.Abs(ratio-math.Round(ratio)) < 0.05
			if nearInt && ratio > 1.5 {
				harmonic = true
				break
			}
		}
		if !harmonic {
			filtered = append(filtered, r)
		}
	}
	out = filtered
	if cfg.MaxPeriods > 0 && len(out) > cfg.MaxPeriods {
		out = out[:cfg.MaxPeriods]
	}
	if len(out) == 0 {
		return nil
	}
	return slices.Clone(out)
}

// centre writes the box-smoothed x, minus its mean, into d.centred and
// returns its sum of squares: the autocorrelation denominator at every
// lag.
func (d *Detector) centre(x []float64, width int) float64 {
	d.centred = grow(d.centred, len(x))
	c := d.centred
	boxSmooth(c, x, width)
	var mean float64
	for _, v := range c {
		mean += v
	}
	mean /= float64(len(c))
	var denom float64
	for i, v := range c {
		v -= mean
		c[i] = v
		denom += v * v
	}
	return denom
}

// boxSmooth writes into dst (len(x) long) x convolved with a centered
// box filter of the given width (clamped to odd sizes, minimum 1). Width
// 1 copies x.
func boxSmooth(dst, x []float64, width int) {
	if width <= 1 {
		copy(dst, x)
		return
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	var sum float64
	// Sliding-window sum; every position of dst is written.
	for i := 0; i < len(x); i++ {
		sum += x[i]
		if i-width >= 0 {
			sum -= x[i-width]
		}
		center := i - half
		if center >= 0 {
			dst[center] = sum
		}
	}
	// Tail positions keep partial sums (edge effect is negligible for the
	// long signals this package processes).
	for center := len(x) - half; center < len(x); center++ {
		if center < 0 {
			continue
		}
		var s float64
		for j := center - half; j <= center+half && j < len(x); j++ {
			if j >= 0 {
				s += x[j]
			}
		}
		dst[center] = s
	}
}

// acf returns the normalized, linear (non-circular) autocorrelation at
// lag of a centred signal c whose sum of squares is denom: the sum of
// c[i]·c[i+lag] over i in order, divided by denom. Lags outside
// [1, len(c)) and a zero denom score 0.
func acf(c []float64, denom float64, lag int) float64 {
	n := len(c)
	if lag <= 0 || lag >= n || floatcmp.IsZero(denom) {
		return 0
	}
	x, y := c[:n-lag], c[lag:]
	var num float64
	for i, v := range x {
		num += v * y[i]
	}
	return num / denom
}

// IsPeriodic reports whether a timestamp sequence exhibits any validated
// periodicity, along with the dominant period (by autocorrelation score).
func (d *Detector) IsPeriodic(timestamps []float64, cfg DetectorConfig) (bool, float64) {
	res := d.Detect(timestamps, cfg)
	if len(res) == 0 {
		return false, 0
	}
	return true, res[0].Period
}
