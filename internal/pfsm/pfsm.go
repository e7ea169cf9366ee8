// Package pfsm infers probabilistic finite state machines from event
// traces, reproducing the role Synoptic (Beschastnikh et al., FSE 2011)
// plays in BehavIoT's system behavior modeling (paper §4.2).
//
// The inference pipeline follows Synoptic's structure:
//
//  1. Mine temporal invariants from the traces: AlwaysFollowedBy,
//     NeverFollowedBy, and AlwaysPrecededBy over event-type pairs.
//  2. Build the initial model by partitioning events by type (all events
//     with the same label share a state).
//  3. Counterexample-guided refinement: model-check each invariant against
//     the partition graph; when the graph admits a path that violates an
//     invariant, locate the partition where the abstract counterexample
//     diverges from every concrete trace and split it.
//  4. Annotate the final graph with transition probabilities estimated
//     from the concrete traces.
//
// The resulting PFSM has the two properties BehavIoT relies on (§5.2): it
// accepts every training trace, and it generalizes to unseen interleavings
// of observed behavior. Trace probabilities use additive smoothing so that
// a single unseen transition does not collapse P_T to zero (footnote 3).
package pfsm

import (
	"fmt"
	"sort"
	"strings"
)

// Trace is an ordered sequence of event labels produced by one user-event
// trace (events closer than the trace gap, paper §4.2).
type Trace []string

// Special state labels for the synthetic initial and terminal states.
const (
	InitialLabel  = "INITIAL"
	TerminalLabel = "TERMINAL"
)

// State is one node of the PFSM: a partition of concrete events sharing a
// label (possibly one of several partitions with the same label after
// refinement).
type State struct {
	// ID is the state's index in Model.States.
	ID int
	// Label is the event type this state models (or INITIAL/TERMINAL).
	Label string
}

// Model is an inferred PFSM.
type Model struct {
	// States holds all states; States[0] is INITIAL, States[1] TERMINAL.
	States []State
	// counts[i][j] is the number of observed transitions i→j.
	counts []map[int]int
	// outTotals[i] is the total outgoing transition count of state i.
	outTotals []int
	// byLabel maps an event label to the states modeling it.
	byLabel map[string][]int
	// Alpha is the additive-smoothing constant used by TraceProb: alpha
	// for every inferred model, and whatever a decoded snapshot stored.
	Alpha float64
}

const (
	initialID  = 0
	terminalID = 1
)

// alpha is the additive-smoothing constant Infer gives every model:
// 1, Laplace smoothing.
const alpha = 1

// Options tunes inference.
type Options struct {
	// MaxRefinements caps the number of partition splits (Synoptic
	// likewise bounds refinement); 0 means the default of 100.
	MaxRefinements int
	// DisableRefinement skips invariant-guided splitting, yielding the
	// pure label-partition model. Exposed for ablation.
	DisableRefinement bool
}

func (o Options) withDefaults() Options {
	if o.MaxRefinements <= 0 {
		o.MaxRefinements = 100
	}
	return o
}

// event is one concrete event instance.
type event struct {
	trace, index int // position in the input traces
}

// Infer builds a PFSM from traces.
func Infer(traces []Trace, opts Options) *Model {
	opts = opts.withDefaults()

	// Collect concrete events and their partition assignment.
	// partition[t][i] is the partition id of event i in trace t.
	// Partitions 0/1 are reserved for INITIAL/TERMINAL.
	labels := []string{InitialLabel, TerminalLabel}
	labelOf := map[string]int{} // partition id → via labels slice
	partition := make([][]int, len(traces))
	nextPart := 2
	partLabel := map[int]string{initialID: InitialLabel, terminalID: TerminalLabel}
	for t, tr := range traces {
		partition[t] = make([]int, len(tr))
		for i, lab := range tr {
			id, ok := labelOf[lab]
			if !ok {
				id = nextPart
				nextPart++
				labelOf[lab] = id
				partLabel[id] = lab
				labels = append(labels, lab)
			}
			partition[t][i] = id
		}
	}

	inv := mineInvariants(traces)

	if !opts.DisableRefinement {
		refine(traces, partition, partLabel, &nextPart, inv, opts.MaxRefinements)
	}

	return buildModel(traces, partition, partLabel, nextPart)
}

// buildModel constructs the final Model from a partition assignment.
func buildModel(traces []Trace, partition [][]int, partLabel map[int]string, numParts int) *Model {
	// Compact partition ids: some may be empty after splits.
	used := make([]bool, numParts)
	used[initialID], used[terminalID] = true, true
	for _, ps := range partition {
		for _, p := range ps {
			used[p] = true
		}
	}
	remap := make([]int, numParts)
	m := &Model{byLabel: map[string][]int{}, Alpha: alpha}
	for p := 0; p < numParts; p++ {
		if !used[p] {
			remap[p] = -1
			continue
		}
		id := len(m.States)
		remap[p] = id
		st := State{ID: id, Label: partLabel[p]}
		m.States = append(m.States, st)
		m.byLabel[st.Label] = append(m.byLabel[st.Label], id)
	}
	m.counts = make([]map[int]int, len(m.States))
	for i := range m.counts {
		m.counts[i] = map[int]int{}
	}
	m.outTotals = make([]int, len(m.States))
	for t, tr := range traces {
		prev := initialID
		for i := range tr {
			cur := remap[partition[t][i]]
			m.counts[prev][cur]++
			m.outTotals[prev]++
			prev = cur
		}
		m.counts[prev][terminalID]++
		m.outTotals[prev]++
	}
	return m
}

// NumStates returns the number of states excluding INITIAL and TERMINAL.
func (m *Model) NumStates() int { return len(m.States) - 2 }

// TotalEdges returns all distinct transitions including INITIAL/TERMINAL
// edges (the "transitions" count the paper reports for Fig 3 includes
// entries and exits).
func (m *Model) TotalEdges() int {
	n := 0
	for _, outs := range m.counts {
		n += len(outs)
	}
	return n
}

// TransitionProb returns the maximum-likelihood probability of the i→j
// transition (no smoothing).
func (m *Model) TransitionProb(i, j int) float64 {
	if i < 0 || i >= len(m.States) || m.outTotals[i] == 0 {
		return 0
	}
	return float64(m.counts[i][j]) / float64(m.outTotals[i])
}

// smoothedProb applies additive smoothing: (c_ij + α) / (c_i + α(S+1)),
// where S is the state count (+1 for the implicit unseen-successor mass).
func (m *Model) smoothedProb(i, j int) float64 {
	s := float64(len(m.States))
	return (float64(m.counts[i][j]) + m.Alpha) /
		(float64(m.outTotals[i]) + m.Alpha*(s+1))
}

// Accepts reports whether the trace maps to a path of observed transitions
// from INITIAL to TERMINAL. Because refinement may create several states
// per label, acceptance is decided by dynamic programming over the label
// sequence.
func (m *Model) Accepts(tr Trace) bool {
	reachable := map[int]bool{initialID: true}
	for _, lab := range tr {
		next := map[int]bool{}
		for _, cand := range m.byLabel[lab] {
			for src := range reachable {
				if m.counts[src][cand] > 0 {
					next[cand] = true
					break
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		reachable = next
	}
	for src := range reachable {
		if m.counts[src][terminalID] > 0 {
			return true
		}
	}
	return false
}

// TraceProb returns the probability that the PFSM generates the trace,
// computed as the maximum-probability state path (Viterbi) using smoothed
// transition probabilities. Labels never seen in training map to a
// synthetic unseen state, which smoothing assigns minimal mass, so the
// result is small but never zero (footnote 3 of the paper).
func (m *Model) TraceProb(tr Trace) float64 {
	type cell struct {
		state int
		prob  float64
	}
	cur := []cell{{state: initialID, prob: 1}}
	for _, lab := range tr {
		cands := m.byLabel[lab]
		var next []cell
		if len(cands) == 0 {
			// Unseen label: consume smoothing mass from the best current
			// state and stay in a virtual state that behaves like INITIAL
			// for the next step (minimal continuation probability).
			best := 0.0
			for _, c := range cur {
				p := c.prob * m.smoothedUnseen(c.state)
				if p > best {
					best = p
				}
			}
			next = []cell{{state: -1, prob: best}}
		} else {
			bestBy := map[int]float64{}
			for _, c := range cur {
				for _, cand := range cands {
					var p float64
					if c.state == -1 {
						p = c.prob * m.minSmoothed()
					} else {
						p = c.prob * m.smoothedProb(c.state, cand)
					}
					if p > bestBy[cand] {
						bestBy[cand] = p
					}
				}
			}
			for s, p := range bestBy {
				//lint:ignore maprange cur is only ever max-reduced (float max is exact and order-free), so cell order cannot change the result
				next = append(next, cell{state: s, prob: p})
			}
		}
		cur = next
	}
	best := 0.0
	for _, c := range cur {
		var p float64
		if c.state == -1 {
			p = c.prob * m.minSmoothed()
		} else {
			p = c.prob * m.smoothedProb(c.state, terminalID)
		}
		if p > best {
			best = p
		}
	}
	return best
}

// smoothedUnseen is the smoothing mass for a transition to a state never
// observed from src.
func (m *Model) smoothedUnseen(src int) float64 {
	if src == -1 {
		return m.minSmoothed()
	}
	s := float64(len(m.States))
	return m.Alpha / (float64(m.outTotals[src]) + m.Alpha*(s+1))
}

// minSmoothed is the smallest smoothing probability in the model, used for
// steps out of virtual unseen states.
func (m *Model) minSmoothed() float64 {
	maxOut := 0
	for _, t := range m.outTotals {
		if t > maxOut {
			maxOut = t
		}
	}
	s := float64(len(m.States))
	return m.Alpha / (float64(maxOut) + m.Alpha*(s+1))
}

// Transition is one edge of the model with its statistics.
type Transition struct {
	From, To   int
	FromLabel  string
	ToLabel    string
	Count      int
	Prob       float64 // maximum-likelihood probability
	FromTotals int     // total outgoing transitions of From
}

// Transitions lists all observed edges sorted by (From, To).
func (m *Model) Transitions() []Transition {
	var out []Transition
	for i, outs := range m.counts {
		for j, c := range outs {
			out = append(out, Transition{
				From: i, To: j,
				FromLabel:  m.States[i].Label,
				ToLabel:    m.States[j].Label,
				Count:      c,
				Prob:       m.TransitionProb(i, j),
				FromTotals: m.outTotals[i],
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		return out[a].To < out[b].To
	})
	return out
}

// DOT renders the model in Graphviz format for inspection.
func (m *Model) DOT() string {
	var b strings.Builder
	b.WriteString("digraph pfsm {\n  rankdir=LR;\n")
	for _, s := range m.States {
		shape := "ellipse"
		if s.ID == initialID || s.ID == terminalID {
			shape = "diamond"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", s.ID, s.Label, shape)
	}
	for _, tr := range m.Transitions() {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%.2f\"];\n", tr.From, tr.To, tr.Prob)
	}
	b.WriteString("}\n")
	return b.String()
}
