// Package features extracts the 21-feature vector of Table 8 (paper
// Appendix B) from a flow burst. The features cover packet sizes, inter-
// packet timings, and local/external packet counts; IP addresses and port
// numbers are deliberately excluded because they are highly dynamic, while
// the destination domain and protocol are carried alongside the vector by
// the caller (they are categorical, not numeric).
package features

import (
	"behaviot/internal/floatcmp"
	"behaviot/internal/flows"
	"behaviot/internal/stats"
)

// Dim is the dimensionality of a feature vector.
const Dim = 21

// Names lists the features in vector order, matching Table 8.
var Names = [Dim]string{
	"meanBytes",
	"minBytes",
	"maxBytes",
	"medAbsDev",
	"skewLength",
	"kurtosisLength",
	"meanTBP",
	"varTBP",
	"medianTBP",
	"kurtosisTBP",
	"skewTBP",
	"network_out_external",
	"network_in_external",
	"network_external",
	"network_local",
	"network_out_local",
	"network_in_local",
	"meanBytes_out_external",
	"meanBytes_in_external",
	"meanBytes_out_local",
	"meanBytes_in_local",
}

// Extract computes the Table 8 feature vector for a flow burst. Bursts
// with no packets yield the zero vector.
func Extract(f *flows.Flow) []float64 {
	v := make([]float64, Dim)
	n := len(f.Packets)
	if n == 0 {
		return v
	}

	sizes := make([]float64, n)
	for i, p := range f.Packets {
		sizes[i] = float64(p.Size)
	}
	// Inter-packet time differences in seconds.
	var tbp []float64
	for i := 1; i < n; i++ {
		tbp = append(tbp, f.Packets[i].Time.Sub(f.Packets[i-1].Time).Seconds())
	}

	v[0] = stats.Mean(sizes)
	v[1] = stats.Min(sizes)
	v[2] = stats.Max(sizes)
	v[3] = stats.MedianAbsDev(sizes)
	v[4] = stats.Skewness(sizes)
	v[5] = stats.Kurtosis(sizes)
	v[6] = stats.Mean(tbp)
	v[7] = stats.Variance(tbp)
	v[8] = stats.Median(tbp)
	v[9] = stats.Kurtosis(tbp)
	v[10] = stats.Skewness(tbp)

	var outExt, inExt, outLoc, inLoc int
	var outExtBytes, inExtBytes, outLocBytes, inLocBytes float64
	for _, p := range f.Packets {
		switch {
		case p.Local && p.Dir == flows.DirOutbound:
			outLoc++
			outLocBytes += float64(p.Size)
		case p.Local && p.Dir == flows.DirInbound:
			inLoc++
			inLocBytes += float64(p.Size)
		case p.Dir == flows.DirOutbound:
			outExt++
			outExtBytes += float64(p.Size)
		default:
			inExt++
			inExtBytes += float64(p.Size)
		}
	}
	v[11] = float64(outExt)
	v[12] = float64(inExt)
	v[13] = float64(outExt + inExt)
	v[14] = float64(outLoc + inLoc)
	v[15] = float64(outLoc)
	v[16] = float64(inLoc)
	v[17] = safeDiv(outExtBytes, outExt)
	v[18] = safeDiv(inExtBytes, inExt)
	v[19] = safeDiv(outLocBytes, outLoc)
	v[20] = safeDiv(inLocBytes, inLoc)
	return v
}

func safeDiv(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Normalizer performs per-feature standardization (zero mean, unit
// variance) fitted on a training set. The classifiers in the pipeline are
// trained on normalized vectors so that byte counts do not dominate the
// distance metrics used by DBSCAN.
type Normalizer struct {
	mean [Dim]float64
	std  [Dim]float64
}

// FitNormalizer computes per-feature statistics from training vectors.
func FitNormalizer(vectors [][]float64) *Normalizer {
	n := &Normalizer{}
	for d := 0; d < Dim; d++ {
		col := make([]float64, 0, len(vectors))
		for _, v := range vectors {
			if d < len(v) {
				col = append(col, v[d])
			}
		}
		m, s := stats.MeanStd(col)
		n.mean[d] = m
		if floatcmp.IsZero(s) {
			s = 1 // constant feature: leave centered values at 0
		}
		n.std[d] = s
	}
	return n
}

// Apply returns a standardized copy of v.
func (n *Normalizer) Apply(v []float64) []float64 {
	out := make([]float64, len(v))
	for d := range v {
		if d < Dim {
			out[d] = (v[d] - n.mean[d]) / n.std[d]
		} else {
			out[d] = v[d]
		}
	}
	return out
}

// ApplyAll standardizes a batch of vectors.
func (n *Normalizer) ApplyAll(vs [][]float64) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = n.Apply(v)
	}
	return out
}
