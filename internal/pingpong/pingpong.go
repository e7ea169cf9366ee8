// Package pingpong reimplements the core of PingPong (Trimananda et al.,
// NDSS 2020), the packet-level signature baseline BehavIoT compares
// against in Table 3. PingPong observes that many IoT user events produce
// a characteristic request/reply "ping-pong" of packet lengths between the
// device (or phone) and the cloud, and extracts per-event signatures as
// sequences of (direction, length-range) packet pairs.
//
// The reimplementation follows the published pipeline at flow granularity:
//
//   - Training clusters the (outbound, inbound) packet-length pairs that
//     occur in most positive flows of an event into signature pairs, each
//     matching the length range its cluster spans (PingPong's range-based
//     matching).
//   - Matching requires every signature pair to appear as consecutive
//     packets in the candidate flow, in order.
//
// As in the paper, events whose packet lengths vary (e.g. TLS padding
// variation) yield weaker signatures, which is why BehavIoT's feature-
// based classifier meets or exceeds PingPong on every overlapping device.
package pingpong

import (
	"sort"

	"behaviot/internal/flows"
)

// PairKind distinguishes the direction patterns PingPong models.
type PairKind uint8

// Direction patterns of a signature pair.
const (
	// PairOutIn is a device→cloud packet followed by cloud→device.
	PairOutIn PairKind = iota
	// PairInOut is cloud→device followed by device→cloud.
	PairInOut
)

// Pair is one (direction, length-range) packet pair of a signature.
type Pair struct {
	Kind               PairKind
	FirstLo, FirstHi   int // inclusive length range of the first packet
	SecondLo, SecondHi int // inclusive length range of the second packet
}

// Signature is an ordered sequence of packet pairs characterizing one
// event type.
type Signature struct {
	Event string
	Pairs []Pair
}

// Signature extraction parameters.
const (
	// minSupport is the fraction of training flows a pair must appear in
	// to join the signature (PingPong's core-pair notion).
	minSupport = 0.75
	// maxPairs caps signature length.
	maxPairs = 4
)

// rawPair is an observed consecutive packet pair.
type rawPair struct {
	kind          PairKind
	first, second int
}

// pairsOf extracts the consecutive request/reply pairs from a flow.
func pairsOf(f *flows.Flow) []rawPair {
	var out []rawPair
	for i := 0; i+1 < len(f.Packets); i++ {
		a, b := f.Packets[i], f.Packets[i+1]
		if a.Dir == b.Dir {
			continue
		}
		kind := PairOutIn
		if a.Dir == flows.DirInbound {
			kind = PairInOut
		}
		out = append(out, rawPair{kind: kind, first: a.Size, second: b.Size})
	}
	return out
}

// clusterGap is the maximum distance between adjacent first-packet
// lengths merged into one cluster, mirroring PingPong's DBSCAN-based
// packet-length clustering: small per-repetition variation (TLS padding,
// a few bytes of payload change) stays within a cluster, while distinct
// message types form separate clusters.
const clusterGap = 5

// Extract builds a signature for one event from its training flows.
// It returns ok=false when no packet-pair cluster reaches the support
// threshold (the event is not PingPong-detectable).
func Extract(event string, training []*flows.Flow) (Signature, bool) {
	if len(training) == 0 {
		return Signature{Event: event}, false
	}
	// Observed pairs with their flow id and position.
	type obs struct {
		flow   int
		pos    int
		first  int
		second int
	}
	byKind := map[PairKind][]obs{}
	for fi, f := range training {
		for i, rp := range pairsOf(f) {
			byKind[rp.kind] = append(byKind[rp.kind], obs{flow: fi, pos: i, first: rp.first, second: rp.second})
		}
	}
	minCount := int(minSupport*float64(len(training)) + 0.5)
	if minCount < 1 {
		minCount = 1
	}
	type cand struct {
		kind               PairKind
		count              int
		meanPos            float64
		firstLo, firstHi   int
		secondLo, secondHi int
	}
	var cands []cand
	for _, kind := range []PairKind{PairOutIn, PairInOut} {
		os := byKind[kind]
		if len(os) == 0 {
			continue
		}
		// 1-D cluster on first-packet length: sort and split at gaps.
		sort.Slice(os, func(i, j int) bool { return os[i].first < os[j].first })
		start := 0
		flush := func(end int) {
			cluster := os[start:end]
			flowsSeen := map[int]bool{}
			c := cand{
				kind:    kind,
				firstLo: cluster[0].first, firstHi: cluster[len(cluster)-1].first,
				secondLo: cluster[0].second, secondHi: cluster[0].second,
			}
			var posSum float64
			for _, o := range cluster {
				flowsSeen[o.flow] = true
				posSum += float64(o.pos)
				if o.second < c.secondLo {
					c.secondLo = o.second
				}
				if o.second > c.secondHi {
					c.secondHi = o.second
				}
			}
			c.count = len(flowsSeen)
			c.meanPos = posSum / float64(len(cluster))
			if c.count >= minCount {
				cands = append(cands, c)
			}
		}
		for i := 1; i < len(os); i++ {
			if os[i].first-os[i-1].first > clusterGap {
				flush(i)
				start = i
			}
		}
		flush(len(os))
	}
	if len(cands) == 0 {
		return Signature{Event: event}, false
	}
	// Highest-support clusters first, then stabilize by flow position.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].count != cands[j].count {
			return cands[i].count > cands[j].count
		}
		//lint:ignore floateq sort tiebreaker: an epsilon here would break comparator transitivity
		if cands[i].meanPos != cands[j].meanPos {
			return cands[i].meanPos < cands[j].meanPos
		}
		return cands[i].firstLo < cands[j].firstLo
	})
	if len(cands) > maxPairs {
		cands = cands[:maxPairs]
	}
	// Order retained pairs by their mean position so matching follows the
	// flow's request/reply sequence.
	sort.Slice(cands, func(i, j int) bool { return cands[i].meanPos < cands[j].meanPos })
	sig := Signature{Event: event}
	for _, c := range cands {
		sig.Pairs = append(sig.Pairs, Pair{
			Kind:     c.kind,
			FirstLo:  c.firstLo,
			FirstHi:  c.firstHi,
			SecondLo: c.secondLo,
			SecondHi: c.secondHi,
		})
	}
	return sig, true
}

// Matches reports whether the flow contains every signature pair in order.
func (s Signature) Matches(f *flows.Flow) bool {
	if len(s.Pairs) == 0 {
		return false
	}
	ps := pairsOf(f)
	pi := 0
	for _, rp := range ps {
		want := s.Pairs[pi]
		if rp.kind == want.Kind &&
			rp.first >= want.FirstLo && rp.first <= want.FirstHi &&
			rp.second >= want.SecondLo && rp.second <= want.SecondHi {
			pi++
			if pi == len(s.Pairs) {
				return true
			}
		}
	}
	return false
}

// Classifier is a set of per-event signatures.
type Classifier struct {
	sigs []Signature
}

// Train extracts signatures for every event in the labeled training set.
// Events without a viable signature are silently unmatchable, exactly as
// in PingPong's evaluation.
func Train(byEvent map[string][]*flows.Flow) *Classifier {
	events := make([]string, 0, len(byEvent))
	for e := range byEvent {
		events = append(events, e)
	}
	sort.Strings(events)
	c := &Classifier{}
	for _, e := range events {
		if sig, ok := Extract(e, byEvent[e]); ok {
			c.sigs = append(c.sigs, sig)
		}
	}
	return c
}

// Classify returns the first matching event's label, preferring the most
// specific (longest) signature; ok=false when nothing matches.
func (c *Classifier) Classify(f *flows.Flow) (string, bool) {
	best := -1
	for i, sig := range c.sigs {
		if sig.Matches(f) {
			if best < 0 || len(sig.Pairs) > len(c.sigs[best].Pairs) {
				best = i
			}
		}
	}
	if best < 0 {
		return "", false
	}
	return c.sigs[best].Event, true
}
