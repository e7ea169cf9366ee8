package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

// genPeriodic produces event timestamps with the given period over the span,
// with uniform jitter of ±jitterFrac*period.
func genPeriodic(rng *rand.Rand, period, span, jitterFrac float64) []float64 {
	var ts []float64
	for t := 0.0; t < span; t += period {
		j := (rng.Float64()*2 - 1) * jitterFrac * period
		v := t + j
		if v < 0 {
			v = 0
		}
		ts = append(ts, v)
	}
	return ts
}

// permute applies a random permutation to inter-arrival structure by
// drawing timestamps uniformly over the same span (the paper's aperiodic
// sequences are random permutations of periodic ones, destroying timing).
func permute(rng *rand.Rand, ts []float64) []float64 {
	if len(ts) == 0 {
		return nil
	}
	span := ts[len(ts)-1]
	out := make([]float64, len(ts))
	for i := range out {
		out[i] = rng.Float64() * span
	}
	return out
}

func TestDetectPeriodsExact(t *testing.T) {
	cfg := DefaultDetectorConfig()
	for _, period := range []float64{5, 30, 60, 300, 600} {
		span := period * 60
		var ts []float64
		for x := 0.0; x < span; x += period {
			ts = append(ts, x)
		}
		ok, p := new(Detector).IsPeriodic(ts, cfg)
		if !ok {
			t.Errorf("period %v: not detected", period)
			continue
		}
		if math.Abs(p-period)/period > 0.1 {
			t.Errorf("period %v: detected %v", period, p)
		}
	}
}

func TestDetectPeriodsWithJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultDetectorConfig()
	for _, period := range []float64{20, 120, 236} {
		ts := genPeriodic(rng, period, period*80, 0.05)
		ok, p := new(Detector).IsPeriodic(ts, cfg)
		if !ok {
			t.Errorf("jittered period %v: not detected", period)
			continue
		}
		if math.Abs(p-period)/period > 0.15 {
			t.Errorf("jittered period %v: detected %v", period, p)
		}
	}
}

func TestAperiodicRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := DefaultDetectorConfig()
	rejected := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		base := genPeriodic(rng, 60, 3600, 0)
		ts := permute(rng, base)
		if ok, _ := new(Detector).IsPeriodic(ts, cfg); !ok {
			rejected++
		}
	}
	if rejected < trials-1 {
		t.Errorf("only %d/%d aperiodic sequences rejected", rejected, trials)
	}
}

// TestPaperSyntheticEvaluation reproduces the §5.1 periodic-model
// evaluation: 100 periodic sequences with varying periods, 100 aperiodic
// (permuted) sequences, and 100 periodic sequences with added noise.
// The paper reports 100% accuracy; we require near-perfect on the clean
// sets and strong accuracy on the noisy set.
func TestPaperSyntheticEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("long synthetic sweep")
	}
	rng := rand.New(rand.NewSource(2023))
	cfg := DefaultDetectorConfig()

	var d Detector
	periodicOK, aperiodicOK, noisyOK := 0, 0, 0
	const n = 100
	for i := 0; i < n; i++ {
		period := 5 + rng.Float64()*595 // 5 s .. 10 min
		span := period * (50 + rng.Float64()*50)
		ts := genPeriodic(rng, period, span, 0.02)

		if ok, p := d.IsPeriodic(ts, cfg); ok && math.Abs(p-period)/period < 0.2 {
			periodicOK++
		}
		if ok, _ := d.IsPeriodic(permute(rng, ts), cfg); !ok {
			aperiodicOK++
		}
		// Noisy: periodic + uniform background events (paper combines
		// periodic and aperiodic sequences).
		noisy := append([]float64(nil), ts...)
		extra := len(ts) / 4
		for j := 0; j < extra; j++ {
			noisy = append(noisy, rng.Float64()*span)
		}
		if ok, p := d.IsPeriodic(noisy, cfg); ok && math.Abs(p-period)/period < 0.2 {
			noisyOK++
		}
	}
	if periodicOK < 98 {
		t.Errorf("periodic detection: %d/100, want >= 98", periodicOK)
	}
	if aperiodicOK < 95 {
		t.Errorf("aperiodic rejection: %d/100, want >= 95", aperiodicOK)
	}
	if noisyOK < 90 {
		t.Errorf("noisy detection: %d/100, want >= 90", noisyOK)
	}
	t.Logf("periodic %d/100, aperiodic %d/100, noisy %d/100",
		periodicOK, aperiodicOK, noisyOK)
}

func TestDetectPeriodsTooFewEvents(t *testing.T) {
	cfg := DefaultDetectorConfig()
	var d Detector
	if res := d.Detect([]float64{1, 2, 3}, cfg); res != nil {
		t.Errorf("3 events should yield nil, got %v", res)
	}
	if res := d.Detect(nil, cfg); res != nil {
		t.Error("nil input should yield nil")
	}
	// All-equal timestamps: zero span.
	if res := d.Detect([]float64{5, 5, 5, 5, 5}, cfg); res != nil {
		t.Errorf("zero-span input should yield nil, got %v", res)
	}
}

func TestDetectPeriodsUnsortedInput(t *testing.T) {
	cfg := DefaultDetectorConfig()
	var ts []float64
	for x := 0.0; x < 3600; x += 60 {
		ts = append(ts, x)
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	orig := append([]float64(nil), ts...)
	ok, p := new(Detector).IsPeriodic(ts, cfg)
	if !ok || math.Abs(p-60) > 6 {
		t.Errorf("unsorted input: ok=%v period=%v", ok, p)
	}
	for i := range ts {
		if ts[i] != orig[i] {
			t.Fatal("Detect mutated its input")
		}
	}
}

func TestHarmonicSuppression(t *testing.T) {
	// A strict period-60 impulse train also has spectral peaks at
	// harmonics; results must not report 120/180 as separate periods.
	var ts []float64
	for x := 0.0; x < 7200; x += 60 {
		ts = append(ts, x)
	}
	res := new(Detector).Detect(ts, DefaultDetectorConfig())
	if len(res) == 0 {
		t.Fatal("no periods detected")
	}
	for _, r := range res {
		ratio := r.Period / res[0].Period
		if ratio > 1.5 && math.Abs(ratio-math.Round(ratio)) < 0.05 {
			t.Errorf("harmonic %v of base %v not suppressed", r.Period, res[0].Period)
		}
	}
}

func TestMultiplePeriodsDetected(t *testing.T) {
	// Two interleaved processes with distinct non-harmonic periods.
	var ts []float64
	for x := 0.0; x < 20000; x += 70 {
		ts = append(ts, x)
	}
	for x := 3.0; x < 20000; x += 410 { // not a multiple of 70
		ts = append(ts, x)
	}
	res := new(Detector).Detect(ts, DefaultDetectorConfig())
	found70 := false
	for _, r := range res {
		if math.Abs(r.Period-70)/70 < 0.1 {
			found70 = true
		}
	}
	if !found70 {
		t.Errorf("dominant period 70 not found in %v", res)
	}
}

// BenchmarkDetectPeriods mines 5 days of minute heartbeats with one
// reused Detector, as each training lane does. A warm-up call sizes the
// buffers before the timer starts, so allocs/op counts only what every
// call allocates; make bench-ratchet holds it to BENCH_baseline.json.
func BenchmarkDetectPeriods(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ts := genPeriodic(rng, 60, 5*24*3600, 0.02) // 5 days of minute heartbeats
	cfg := DefaultDetectorConfig()
	var d Detector
	d.Detect(ts, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(ts, cfg)
	}
}

// FuzzDetectPeriods holds Detect bit-equal to referenceDetectPeriods,
// the allocate-per-call implementation it replaced, while one
// long-lived Detector mines a sequence of inputs. The fuzz bytes are
// segments, each a header byte and then inter-arrival gaps up to a 0
// byte: the header's low six bits scale the gaps (gap = byte·(1+h%64)/16
// seconds) and its top two bits pick the bin width.
func FuzzDetectPeriods(f *testing.F) {
	segment := func(h byte, gap byte, events int) []byte {
		s := []byte{h}
		for i := 0; i < events; i++ {
			s = append(s, gap)
		}
		return append(s, 0)
	}
	jittered := func(h byte, events int) []byte {
		s := []byte{h}
		for i := 0; i < events; i++ {
			s = append(s, 58+byte(i*7%5))
		}
		return append(s, 0)
	}
	for _, seed := range [][]byte{
		segment(15, 15, 18),  // span 255 s at 1 s bins: n = 256, radix-2 only
		segment(15, 31, 34),  // span 1023 s: n = 1024
		segment(15, 20, 16),  // span 300 s: odd n = 301, Bluestein
		segment(15, 5, 200),  // period 5 s: lag 5, width-1 candidates
		jittered(15, 300),    // jittered minute heartbeat
		segment(79, 200, 40), // coarser gaps, bin width 0.5 s
		append(append(jittered(15, 400), segment(15, 20, 16)...), segment(15, 15, 18)...), // short after long: stale tails
		append(append(segment(15, 5, 200), segment(15, 31, 34)...), segment(15, 5, 200)...),
		append(segment(255, 255, 30), segment(15, 5, 6)...), // widest bins, then a short signal
	} {
		f.Add(seed)
	}
	bins := [4]float64{1, 0.5, 3, 7.5}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Detector
		for len(data) > 0 {
			h := data[0]
			data = data[1:]
			cfg := DefaultDetectorConfig()
			cfg.BinSeconds = bins[h>>6]
			scale := float64(1+h%64) / 16
			var ts []float64
			at := 0.0
			for len(data) > 0 && data[0] != 0 {
				at += float64(data[0]) * scale
				ts = append(ts, at)
				data = data[1:]
			}
			if len(data) > 0 {
				data = data[1:]
			}
			want := referenceDetectPeriods(ts, cfg)
			got := d.Detect(ts, cfg)
			if len(got) != len(want) {
				t.Fatalf("%d events: Detect found %d periods, the reference %d: %v vs %v", len(ts), len(got), len(want), got, want)
			}
			for i := range got {
				g, w := got[i], want[i]
				if math.Float64bits(g.Period) != math.Float64bits(w.Period) ||
					math.Float64bits(g.Power) != math.Float64bits(w.Power) ||
					math.Float64bits(g.ACF) != math.Float64bits(w.ACF) {
					t.Fatalf("%d events: period %d is %+v, the reference %+v", len(ts), i, g, w)
				}
			}
		}
	})
}

// referenceDetectPeriods is the implementation Detector replaced,
// verbatim but for names: it allocates every buffer per call, caches
// smoothed signals in a map, and recomputes the mean and denominator at
// every lag. FuzzDetectPeriods holds Detect bit-equal to it.
func referenceDetectPeriods(timestamps []float64, cfg DetectorConfig) []PeriodResult {
	if len(timestamps) < cfg.MinEvents {
		return nil
	}
	ts := append([]float64(nil), timestamps...)
	sort.Float64s(ts)
	span := ts[len(ts)-1] - ts[0]
	if span <= 0 {
		return nil
	}
	bin := cfg.BinSeconds
	if bin <= 0 {
		bin = 1.0
	}
	const maxBins = 1 << 17
	if span/bin > maxBins {
		bin = span / maxBins
	}
	n := int(span/bin) + 1
	signal := make([]float64, n)
	for _, t := range ts {
		idx := int((t - ts[0]) / bin)
		if idx >= n {
			idx = n - 1
		}
		signal[idx]++
	}

	spec := refPowerSpectrum(signal)
	if len(spec) < 3 {
		return nil
	}
	body := spec[1:]
	var mean float64
	for _, p := range body {
		mean += p
	}
	mean /= float64(len(body))
	var ss float64
	for _, p := range body {
		d := p - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(len(body)))
	thresh := mean + cfg.PowerSigma*std

	type candidate struct {
		lag   int
		power float64
	}
	var cands []candidate
	sigLen := float64(len(signal))
	for k := 1; k < len(spec); k++ {
		if spec[k] <= thresh {
			continue
		}
		period := sigLen / float64(k)
		lag := int(math.Round(period))
		if lag < 2 || lag > len(signal)/2 {
			continue
		}
		cands = append(cands, candidate{lag: lag, power: spec[k]})
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].power > cands[j].power })
	const maxCandidates = 24
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}

	smoothed := map[int][]float64{}
	var out []PeriodResult
	seen := make(map[int]bool)
	for _, c := range cands {
		width := c.lag / 10
		if width < 1 {
			width = 1
		}
		sig, ok := smoothed[width]
		if !ok {
			sig = refBoxSmooth(signal, width)
			smoothed[width] = sig
		}
		lo := c.lag - c.lag/10 - 1
		hi := c.lag + c.lag/10 + 1
		if lo < 1 {
			lo = 1
		}
		if hi > len(sig)-1 {
			hi = len(sig) - 1
		}
		step := (hi - lo) / 25
		if step < 1 {
			step = 1
		}
		best, bestScore := c.lag, math.Inf(-1)
		for l := lo; l <= hi; l += step {
			if r := refACFAtLag(sig, l); r > bestScore {
				bestScore = r
				best = l
			}
		}
		if bestScore < cfg.ACFThreshold || seen[best] {
			continue
		}
		seen[best] = true
		out = append(out, PeriodResult{
			Period: float64(best) * bin,
			Power:  c.power / math.Max(mean, 1e-12),
			ACF:    bestScore,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ACF > out[j].ACF })
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
	return out
}

func refFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) == 0 {
		out := append([]complex128(nil), x...)
		refRadix2(out, false)
		return out
	}
	return refBluestein(x)
}

func refRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
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

func refBluestein(x []complex128) []complex128 {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
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
	refRadix2(a, false)
	refRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	refRadix2(a, true)
	scale := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * scale * w[k]
	}
	return out
}

func refPowerSpectrum(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	spec := refFFT(cx)
	half := n/2 + 1
	out := make([]float64, half)
	for k := 0; k < half; k++ {
		m := cmplx.Abs(spec[k])
		out[k] = m * m / float64(n)
	}
	return out
}

func refBoxSmooth(x []float64, width int) []float64 {
	if width <= 1 {
		return x
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	out := make([]float64, len(x))
	var sum float64
	for i := 0; i < len(x); i++ {
		sum += x[i]
		if i-width >= 0 {
			sum -= x[i-width]
		}
		center := i - half
		if center >= 0 {
			out[center] = sum
		}
	}
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
		out[center] = s
	}
	return out
}

func refACFAtLag(x []float64, lag int) float64 {
	n := len(x)
	if lag <= 0 || lag >= n {
		return 0
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var num, denom float64
	for i := 0; i < n; i++ {
		d := x[i] - mean
		denom += d * d
		if i+lag < n {
			num += d * (x[i+lag] - mean)
		}
	}
	if denom == 0 {
		return 0
	}
	return num / denom
}
