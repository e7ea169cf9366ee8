package randomforest

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// Config controls Random Forest training. The zero value is replaced by
// sensible defaults in Train.
type Config struct {
	// NumTrees is the ensemble size (default 100).
	NumTrees int
	// MaxDepth bounds each tree (default 16).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of features considered at each split;
	// 0 means floor(sqrt(d)) as in Breiman's original formulation.
	MaxFeatures int
	// Seed makes training deterministic.
	Seed int64
}

func (c Config) withDefaults(numFeatures int) Config {
	if c.NumTrees <= 0 {
		c.NumTrees = 100
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 16
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = int(math.Sqrt(float64(numFeatures)))
		if c.MaxFeatures < 1 {
			c.MaxFeatures = 1
		}
	}
	if c.MaxFeatures > numFeatures {
		c.MaxFeatures = numFeatures
	}
	return c
}

// Forest is a trained Random Forest classifier.
type Forest struct {
	trees      []*Tree
	numClasses int
}

// Errors returned by Train.
var (
	ErrNoData          = errors.New("randomforest: no training data")
	ErrShapeMismatch   = errors.New("randomforest: X and y lengths differ")
	ErrInvalidLabel    = errors.New("randomforest: labels must be non-negative")
	ErrUnevenFeatures  = errors.New("randomforest: rows have differing widths")
	ErrNoFeatures      = errors.New("randomforest: zero-width feature vectors")
	errSingleClassOnly = errors.New("randomforest: need at least two classes")
)

// Train fits a Random Forest on X (n samples × d features) with integer
// class labels y in [0, numClasses). Each tree is trained on a bootstrap
// sample with √d feature subsampling per split.
func Train(X [][]float64, y []int, cfg Config) (*Forest, error) {
	if len(X) == 0 {
		return nil, ErrNoData
	}
	if len(X) != len(y) {
		return nil, ErrShapeMismatch
	}
	d := len(X[0])
	if d == 0 {
		return nil, ErrNoFeatures
	}
	numClasses := 0
	for i, row := range X {
		if len(row) != d {
			return nil, ErrUnevenFeatures
		}
		if y[i] < 0 {
			return nil, ErrInvalidLabel
		}
		if y[i]+1 > numClasses {
			numClasses = y[i] + 1
		}
	}
	cfg = cfg.withDefaults(d)
	rng := rand.New(rand.NewSource(cfg.Seed))
	tcfg := treeConfig{
		maxDepth:    cfg.MaxDepth,
		minLeaf:     cfg.MinLeaf,
		maxFeatures: cfg.MaxFeatures,
		numClasses:  numClasses,
	}
	f := &Forest{numClasses: numClasses}
	n := len(X)
	for t := 0; t < cfg.NumTrees; t++ {
		// Bootstrap sample (with replacement).
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		f.trees = append(f.trees, growTree(X, y, idx, tcfg, rng))
	}
	return f, nil
}

// Proba returns the per-class probability for x, computed as the fraction
// of trees voting for each class.
func (f *Forest) Proba(x []float64) []float64 {
	votes := make([]float64, f.numClasses)
	for _, t := range f.trees {
		votes[t.Predict(x)]++
	}
	n := float64(len(f.trees))
	for i := range votes {
		votes[i] /= n
	}
	return votes
}

// BinaryEnsemble is the paper's user-action model structure: one binary
// Random Forest per activity label (one-vs-rest). Prediction selects the
// classifier with the highest positive confidence; when no classifier is
// positive the sample is rejected (returned label "" and ok=false), which
// the paper maps to an aperiodic event (Appendix B).
type BinaryEnsemble struct {
	labels  []string
	forests []*Forest
	// Threshold is the minimum positive-class probability for a
	// classifier to count as positive (default 0.5).
	Threshold float64
}

// TrainBinaryEnsemble trains a one-vs-rest ensemble. samplesByLabel maps an
// activity label to its positive feature vectors; every other label's
// samples are that classifier's negatives. Labels are processed in sorted
// order for determinism.
func TrainBinaryEnsemble(samplesByLabel map[string][][]float64, cfg Config) (*BinaryEnsemble, error) {
	if len(samplesByLabel) == 0 {
		return nil, ErrNoData
	}
	labels := make([]string, 0, len(samplesByLabel))
	for l := range samplesByLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	if len(labels) < 2 {
		return nil, errSingleClassOnly
	}
	be := &BinaryEnsemble{labels: labels, Threshold: 0.5}
	for li := range labels {
		var X [][]float64
		var y []int
		pos, neg := 0, 0
		for lj, other := range labels {
			cls := 0
			if lj == li {
				cls = 1
			}
			for _, row := range samplesByLabel[other] {
				X = append(X, row)
				y = append(y, cls)
				if cls == 1 {
					pos++
				} else {
					neg++
				}
			}
		}
		// One-vs-rest training is heavily imbalanced (one activity's
		// samples against everything else); oversample the positive class
		// so bootstrap samples see both classes, otherwise trees rarely
		// vote positive and true events fall below the confidence
		// threshold.
		if pos > 0 && neg > pos {
			factor := neg/pos - 1
			if factor > 50 {
				factor = 50
			}
			n := len(X)
			for i := 0; i < n; i++ {
				if y[i] == 1 {
					for k := 0; k < factor; k++ {
						X = append(X, X[i])
						y = append(y, 1)
					}
				}
			}
		}
		c := cfg
		c.Seed = cfg.Seed + int64(li)*7919
		f, err := Train(X, y, c)
		if err != nil {
			return nil, err
		}
		be.forests = append(be.forests, f)
	}
	return be, nil
}

// Predict returns the label whose binary classifier reports the highest
// positive probability, with ok=false when no classifier is positive
// (confidence above Threshold).
func (be *BinaryEnsemble) Predict(x []float64) (label string, confidence float64, ok bool) {
	best := -1
	bestP := 0.0
	for i, f := range be.forests {
		p := f.Proba(x)
		pos := 0.0
		if len(p) > 1 {
			pos = p[1]
		}
		if pos > bestP {
			bestP = pos
			best = i
		}
	}
	if best < 0 || bestP < be.Threshold {
		return "", bestP, false
	}
	return be.labels[best], bestP, true
}
