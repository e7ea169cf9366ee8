package pfsm

import (
	"fmt"
	"sort"
)

// InvariantKind enumerates the temporal invariant types Synoptic mines.
type InvariantKind uint8

// The three invariant templates over event-type pairs (a, b).
const (
	// AlwaysFollowedBy: every occurrence of a is eventually followed by
	// an occurrence of b in the same trace.
	AlwaysFollowedBy InvariantKind = iota
	// NeverFollowedBy: no occurrence of a is ever followed by b.
	NeverFollowedBy
	// AlwaysPrecededBy: every occurrence of b is preceded by some a.
	AlwaysPrecededBy
)

// String names the invariant kind with Synoptic's conventional arrows.
func (k InvariantKind) String() string {
	switch k {
	case AlwaysFollowedBy:
		return "AFby"
	case NeverFollowedBy:
		return "NFby"
	case AlwaysPrecededBy:
		return "AP"
	default:
		return "?"
	}
}

// Invariant is one mined temporal property.
type Invariant struct {
	Kind InvariantKind
	A, B string
}

// String renders e.g. "x AFby y".
func (iv Invariant) String() string {
	return fmt.Sprintf("%s %s %s", iv.A, iv.Kind, iv.B)
}

// mineInvariants extracts the AFby/NFby/AP invariants that hold over every
// trace. Only event-type pairs that co-occur in at least one trace are
// considered (Synoptic's relevance restriction), keeping the invariant set
// meaningful for refinement.
func mineInvariants(traces []Trace) []Invariant {
	types := map[string]bool{}
	for _, tr := range traces {
		for _, l := range tr {
			types[l] = true
		}
	}
	var labels []string
	for l := range types {
		labels = append(labels, l)
	}
	sort.Strings(labels)

	type pair struct{ a, b string }
	// followed[a][b]: some occurrence of a is followed by b in some trace.
	// aFollowedAlways[a][b]: every occurrence of a is followed by b
	// whenever a's trace contains b at all... Synoptic's definitions are
	// global over all traces; we track violations directly.
	coOccur := map[pair]bool{}
	everFollowed := map[pair]bool{}
	afByViolated := map[pair]bool{}
	apViolated := map[pair]bool{}

	for _, tr := range traces {
		present := map[string]bool{}
		for _, l := range tr {
			present[l] = true
		}
		for a := range present {
			for b := range present {
				coOccur[pair{a, b}] = true
			}
		}
		// For AFby: for each position i with label a, check whether b
		// occurs at some j > i.
		// For AP: for each position of b, check whether a occurred before.
		for i, a := range tr {
			followsSet := map[string]bool{}
			for j := i + 1; j < len(tr); j++ {
				followsSet[tr[j]] = true
				everFollowed[pair{a, tr[j]}] = true
			}
			for _, b := range labels {
				if !followsSet[b] {
					afByViolated[pair{a, b}] = true
				}
			}
			precededSet := map[string]bool{}
			for j := 0; j < i; j++ {
				precededSet[tr[j]] = true
			}
			for _, x := range labels {
				if !precededSet[x] {
					apViolated[pair{x, a}] = true
				}
			}
		}
	}

	var out []Invariant
	for _, a := range labels {
		for _, b := range labels {
			p := pair{a, b}
			if !coOccur[p] {
				continue
			}
			if everFollowed[p] {
				if !afByViolated[p] {
					out = append(out, Invariant{Kind: AlwaysFollowedBy, A: a, B: b})
				}
			} else {
				out = append(out, Invariant{Kind: NeverFollowedBy, A: a, B: b})
			}
			if !apViolated[p] && a != b {
				out = append(out, Invariant{Kind: AlwaysPrecededBy, A: a, B: b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
