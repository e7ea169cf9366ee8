// Package randomforest implements CART decision trees and Random Forest
// classifiers (Breiman 2001) from scratch, as used by BehavIoT's
// user-action models (paper §4.1, Appendix B). The paper trains one binary
// Random Forest per user activity (one-vs-rest) and predicts the activity
// whose classifier reports the highest positive confidence; this package
// provides both the forest primitive and that binary ensemble.
package randomforest

import (
	"math/rand"
	"sort"
)

// node is one node of a CART decision tree.
type node struct {
	// leaf fields
	isLeaf bool
	// classCounts holds the training-sample count per class at this leaf.
	classCounts []int
	// split fields
	feature   int
	threshold float64
	left      *node
	right     *node
}

// Tree is a single CART decision tree trained with the Gini impurity
// criterion. Construct with growTree (via Forest) rather than directly.
type Tree struct {
	root       *node
	numClasses int
}

// treeConfig controls tree induction.
type treeConfig struct {
	maxDepth    int
	minLeaf     int
	maxFeatures int // number of features considered per split
	numClasses  int
}

// growTree builds a tree on the sample subset idx of (X, y).
func growTree(X [][]float64, y []int, idx []int, cfg treeConfig, rng *rand.Rand) *Tree {
	t := &Tree{numClasses: cfg.numClasses}
	t.root = build(X, y, idx, cfg, rng, 0)
	return t
}

func classCounts(y []int, idx []int, numClasses int) []int {
	counts := make([]int, numClasses)
	for _, i := range idx {
		counts[y[i]]++
	}
	return counts
}

func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

func pure(counts []int) bool {
	seen := 0
	for _, c := range counts {
		if c > 0 {
			seen++
		}
	}
	return seen <= 1
}

func build(X [][]float64, y []int, idx []int, cfg treeConfig, rng *rand.Rand, depth int) *node {
	counts := classCounts(y, idx, cfg.numClasses)
	if len(idx) < 2*cfg.minLeaf || depth >= cfg.maxDepth || pure(counts) {
		return &node{isLeaf: true, classCounts: counts}
	}
	numFeatures := len(X[0])
	// Sample maxFeatures distinct feature indices.
	feats := rng.Perm(numFeatures)
	if cfg.maxFeatures < numFeatures {
		feats = feats[:cfg.maxFeatures]
	}
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	parentGini := gini(counts, len(idx))

	// Reusable sorted view of samples for each candidate feature.
	sortedIdx := make([]int, len(idx))
	for _, f := range feats {
		copy(sortedIdx, idx)
		sort.Slice(sortedIdx, func(a, b int) bool {
			return X[sortedIdx[a]][f] < X[sortedIdx[b]][f]
		})
		leftCounts := make([]int, cfg.numClasses)
		rightCounts := append([]int(nil), counts...)
		n := len(sortedIdx)
		for i := 0; i < n-1; i++ {
			c := y[sortedIdx[i]]
			leftCounts[c]++
			rightCounts[c]--
			// Can only split between distinct feature values.
			//lint:ignore floateq adjacent sorted values: exact equality is what "distinct" means here, an epsilon would skip valid splits
			if X[sortedIdx[i]][f] == X[sortedIdx[i+1]][f] {
				continue
			}
			nl, nr := i+1, n-i-1
			if nl < cfg.minLeaf || nr < cfg.minLeaf {
				continue
			}
			w := float64(nl)/float64(n)*gini(leftCounts, nl) +
				float64(nr)/float64(n)*gini(rightCounts, nr)
			gain := parentGini - w
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (X[sortedIdx[i]][f] + X[sortedIdx[i+1]][f]) / 2
			}
		}
	}
	if bestFeat < 0 || bestGain <= 1e-12 {
		return &node{isLeaf: true, classCounts: counts}
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThresh {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return &node{isLeaf: true, classCounts: counts}
	}
	return &node{
		feature:   bestFeat,
		threshold: bestThresh,
		left:      build(X, y, leftIdx, cfg, rng, depth+1),
		right:     build(X, y, rightIdx, cfg, rng, depth+1),
	}
}

// predictCounts walks the tree and returns the leaf's class counts.
func (t *Tree) predictCounts(x []float64) []int {
	n := t.root
	for !n.isLeaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.classCounts
}

// Predict returns the majority class at the leaf x falls into.
func (t *Tree) Predict(x []float64) int {
	counts := t.predictCounts(x)
	best, bestC := 0, -1
	for c, cnt := range counts {
		if cnt > bestC {
			bestC = cnt
			best = c
		}
	}
	return best
}
