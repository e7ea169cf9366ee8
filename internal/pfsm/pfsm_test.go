package pfsm

import (
	"math"
	"strings"
	"testing"
)

// routineTraces models a small smart-home routine set: a doorbell ring
// blinks a light; motion turns on a plug; a voice command boils a kettle.
func routineTraces() []Trace {
	return []Trace{
		{"ring:ring", "bulb:on", "bulb:off"},
		{"ring:ring", "bulb:on", "bulb:off"},
		{"ring:ring", "bulb:on", "bulb:off"},
		{"cam:motion", "plug:on"},
		{"cam:motion", "plug:on"},
		{"voice:goodmorning", "kettle:boil", "bulb:on"},
	}
}

func TestInferAcceptsAllTrainingTraces(t *testing.T) {
	traces := routineTraces()
	m := Infer(traces, Options{})
	for i, tr := range traces {
		if !m.Accepts(tr) {
			t.Errorf("training trace %d rejected: %v", i, tr)
		}
	}
}

func TestInferRejectsUnobservedTransitions(t *testing.T) {
	m := Infer(routineTraces(), Options{})
	cases := []Trace{
		{"bulb:off", "ring:ring"},          // reversed order never seen
		{"plug:on", "kettle:boil"},         // no such edge
		{"ring:ring", "kettle:boil"},       // cross-routine jump
		{"never:seen"},                     // unknown label
		{"cam:motion", "plug:on", "x:new"}, // unknown suffix
	}
	for i, tr := range cases {
		if m.Accepts(tr) {
			t.Errorf("case %d accepted: %v", i, tr)
		}
	}
}

func TestGeneralizationAcceptsRecombinations(t *testing.T) {
	// Traces share the state "b", so the model generalizes to the
	// recombination a→b→e even though only a→b→c and d→b→e were observed.
	traces := []Trace{
		{"a", "b", "c"},
		{"d", "b", "e"},
	}
	m := Infer(traces, Options{DisableRefinement: true})
	if !m.Accepts(Trace{"a", "b", "e"}) {
		t.Error("PFSM should generalize to a→b→e")
	}
	if !m.Accepts(Trace{"d", "b", "c"}) {
		t.Error("PFSM should generalize to d→b→c")
	}
}

func TestCompactness(t *testing.T) {
	// The PFSM has ~one state per label; the sequence-graph alternative
	// has one node per event instance (Fig 3's comparison).
	traces := routineTraces()
	m := Infer(traces, Options{})
	events := 0
	for _, tr := range traces {
		events += len(tr)
	}
	if m.NumStates() >= events {
		t.Errorf("PFSM states %d not compact vs %d events", m.NumStates(), events)
	}
	if m.NumStates() < 6 { // at least one per distinct label
		t.Errorf("states = %d, want >= 6", m.NumStates())
	}
}

func TestTransitionProbabilities(t *testing.T) {
	// From bulb:on, 3 of 4 observed continuations go to bulb:off and 1
	// ends the trace.
	m := Infer(routineTraces(), Options{DisableRefinement: true})
	var bulbOn int
	for _, s := range m.States {
		if s.Label == "bulb:on" {
			bulbOn = s.ID
		}
	}
	var toOff, toTerm float64
	for _, tr := range m.Transitions() {
		if tr.From == bulbOn && tr.ToLabel == "bulb:off" {
			toOff = tr.Prob
		}
		if tr.From == bulbOn && tr.ToLabel == TerminalLabel {
			toTerm = tr.Prob
		}
	}
	if math.Abs(toOff-0.75) > 1e-9 {
		t.Errorf("P(off|on) = %v, want 0.75", toOff)
	}
	if math.Abs(toTerm-0.25) > 1e-9 {
		t.Errorf("P(end|on) = %v, want 0.25", toTerm)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	m := Infer(routineTraces(), Options{})
	for i, s := range m.States {
		if s.Label == TerminalLabel {
			continue
		}
		var sum float64
		for _, tr := range m.Transitions() {
			if tr.From == i {
				sum += tr.Prob
			}
		}
		if m.outTotals[i] > 0 && math.Abs(sum-1) > 1e-9 {
			t.Errorf("state %s outgoing probs sum to %v", s.Label, sum)
		}
	}
}

func TestTraceProbOrdering(t *testing.T) {
	m := Infer(routineTraces(), Options{})
	seen := m.TraceProb(Trace{"ring:ring", "bulb:on", "bulb:off"})
	unseen := m.TraceProb(Trace{"ring:ring", "kettle:boil"})
	novel := m.TraceProb(Trace{"never:a", "never:b"})
	if !(seen > unseen) {
		t.Errorf("P(seen)=%v should exceed P(unseen-transition)=%v", seen, unseen)
	}
	if !(unseen > novel) {
		t.Errorf("P(unseen-transition)=%v should exceed P(novel-labels)=%v", unseen, novel)
	}
	if novel <= 0 {
		t.Errorf("smoothing must keep P > 0, got %v", novel)
	}
}

func TestSmoothingAvoidsZero(t *testing.T) {
	// Footnote 3: a trace with a never-seen transition must not have
	// probability zero.
	m := Infer(routineTraces(), Options{})
	p := m.TraceProb(Trace{"bulb:off", "cam:motion", "kettle:boil"})
	if p <= 0 {
		t.Errorf("P = %v, want > 0", p)
	}
	if p >= m.TraceProb(Trace{"cam:motion", "plug:on"}) {
		t.Error("nonsense trace should be less likely than an observed one")
	}
}

func TestEmptyTraceHandling(t *testing.T) {
	m := Infer(routineTraces(), Options{})
	// An empty trace corresponds to INITIAL→TERMINAL, never observed here.
	if m.Accepts(Trace{}) {
		t.Error("empty trace should be rejected when never observed")
	}
	if p := m.TraceProb(Trace{}); p <= 0 {
		t.Errorf("empty trace prob = %v, want smoothed > 0", p)
	}
	// A model trained with an empty trace accepts it.
	m2 := Infer([]Trace{{}, {"a"}}, Options{})
	if !m2.Accepts(Trace{}) {
		t.Error("empty trace observed in training should be accepted")
	}
}

func TestInferNoTraces(t *testing.T) {
	m := Infer(nil, Options{})
	if m.NumStates() != 0 {
		t.Errorf("states = %d", m.NumStates())
	}
	if m.Accepts(Trace{"x"}) {
		t.Error("empty model accepts nothing")
	}
}

func TestMineInvariants(t *testing.T) {
	traces := []Trace{
		{"a", "b", "c"},
		{"a", "b"},
	}
	invs := mineInvariants(traces)
	has := func(k InvariantKind, a, b string) bool {
		for _, iv := range invs {
			if iv.Kind == k && iv.A == a && iv.B == b {
				return true
			}
		}
		return false
	}
	if !has(AlwaysFollowedBy, "a", "b") {
		t.Error("missing a AFby b")
	}
	if has(AlwaysFollowedBy, "a", "c") {
		t.Error("a AFby c should not hold (second trace)")
	}
	if !has(AlwaysPrecededBy, "a", "b") {
		t.Error("missing a AP b")
	}
	if !has(AlwaysPrecededBy, "b", "c") {
		t.Error("missing b AP c")
	}
	if !has(NeverFollowedBy, "b", "a") {
		t.Error("missing b NFby a")
	}
	if !has(NeverFollowedBy, "c", "a") {
		t.Error("missing c NFby a")
	}
}

func TestInvariantString(t *testing.T) {
	iv := Invariant{Kind: AlwaysFollowedBy, A: "x", B: "y"}
	if iv.String() != "x AFby y" {
		t.Errorf("String = %q", iv.String())
	}
	if NeverFollowedBy.String() != "NFby" || AlwaysPrecededBy.String() != "AP" {
		t.Error("kind names wrong")
	}
}

func TestRefinementSplitsViolatingState(t *testing.T) {
	// Classic Synoptic example: login sometimes fails and retries, but
	// "success" never follows "fail" directly... construct traces where the
	// label-partition merges two contexts of "mid" that the invariants can
	// tell apart:
	//   a mid x   (mid after a is always followed by x)
	//   b mid y   (mid after b is always followed by y)
	// Label partition creates paths a→mid→y and b→mid→x, which violate
	// NFby(a,y) and NFby(b,x). Refinement should split "mid".
	traces := []Trace{
		{"a", "mid", "x"},
		{"a", "mid", "x"},
		{"b", "mid", "y"},
		{"b", "mid", "y"},
	}
	unrefined := Infer(traces, Options{DisableRefinement: true})
	if !unrefined.Accepts(Trace{"a", "mid", "y"}) {
		t.Fatal("sanity: unrefined model should over-generalize")
	}
	refined := Infer(traces, Options{})
	if refined.Accepts(Trace{"a", "mid", "y"}) {
		t.Error("refined model should reject a→mid→y (violates NFby(a,y))")
	}
	if !refined.Accepts(Trace{"a", "mid", "x"}) {
		t.Error("refined model must keep accepting training traces")
	}
	midStates := refined.byLabel["mid"]
	if len(midStates) < 2 {
		t.Errorf("mid states = %d, want >= 2 after split", len(midStates))
	}
}

func TestRefinementBounded(t *testing.T) {
	// MaxRefinements must cap work even on noisy inputs.
	var traces []Trace
	labels := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 30; i++ {
		var tr Trace
		for j := 0; j < 6; j++ {
			tr = append(tr, labels[(i*7+j*3)%len(labels)])
		}
		traces = append(traces, tr)
	}
	m := Infer(traces, Options{MaxRefinements: 5})
	if m.NumStates() > len(labels)+5 {
		t.Errorf("states = %d exceeds label count + max splits", m.NumStates())
	}
	for i, tr := range traces {
		if !m.Accepts(tr) {
			t.Fatalf("training trace %d rejected after bounded refinement", i)
		}
	}
}

func TestNumEdgesAndTotalEdges(t *testing.T) {
	// TotalEdges (Fig 3's transition count) includes the entry and exit
	// edges, so it exceeds the count of edges between event states.
	m := Infer(routineTraces(), Options{DisableRefinement: true})
	inner := 0
	for _, tr := range m.Transitions() {
		if tr.FromLabel != InitialLabel && tr.ToLabel != TerminalLabel {
			inner++
		}
	}
	if inner <= 0 || m.TotalEdges() != len(m.Transitions()) || m.TotalEdges() <= inner {
		t.Errorf("inner edges=%d TotalEdges=%d transitions=%d", inner, m.TotalEdges(), len(m.Transitions()))
	}
}

func TestDOTOutput(t *testing.T) {
	m := Infer(routineTraces(), Options{})
	dot := m.DOT()
	for _, want := range []string{"digraph pfsm", InitialLabel, TerminalLabel, "bulb:on", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestDeterministicInference(t *testing.T) {
	traces := routineTraces()
	a := Infer(traces, Options{})
	b := Infer(traces, Options{})
	if a.NumStates() != b.NumStates() || a.TotalEdges() != b.TotalEdges() {
		t.Fatal("inference not deterministic")
	}
	ta, tb := a.Transitions(), b.Transitions()
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatal("transition lists differ")
		}
	}
}

func TestSequenceVsPFSMComplexity(t *testing.T) {
	// Fig 3's shape: the sequence-graph node count equals total events,
	// growing linearly; the PFSM stays near the label count.
	var traces []Trace
	for i := 0; i < 50; i++ {
		traces = append(traces, Trace{"ring:ring", "bulb:on", "bulb:off"})
	}
	m := Infer(traces, Options{})
	seqNodes := 0
	for _, tr := range traces {
		seqNodes += len(tr)
	}
	if m.NumStates() > 6 {
		t.Errorf("PFSM states = %d for 3 labels", m.NumStates())
	}
	if seqNodes != 150 {
		t.Errorf("sequence nodes = %d", seqNodes)
	}
}

func BenchmarkInferRoutineScale(b *testing.B) {
	// ~200 traces, ~700 events: the routine-dataset scale from the paper.
	var traces []Trace
	routines := [][]string{
		{"ring:ring", "wemo:on", "echo:weather", "wemo:off"},
		{"cam:motion", "gosund:on"},
		{"voice:allon", "bulb1:on", "bulb2:on", "bulb3:on"},
		{"door:open", "tplink:on", "tplink:color"},
		{"voice:goodnight", "govee:off"},
	}
	for i := 0; i < 200; i++ {
		traces = append(traces, routines[i%len(routines)])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer(traces, Options{})
	}
}

func BenchmarkTraceProb(b *testing.B) {
	m := Infer(routineTraces(), Options{})
	tr := Trace{"ring:ring", "bulb:on", "bulb:off"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TraceProb(tr)
	}
}
