package stream

import "testing"

// staleFlows counts retained e.Flow pointers whose burst no longer
// reads the way it did inside the callback.
func staleFlows(r gateRun) int {
	n := 0
	for i, f := range r.flows {
		if describeFlow(f) != r.flowAt[i] {
			n++
		}
	}
	return n
}

// TestRecycleFlowsIsInvisible holds the flow freelist's contract from
// the outside: to a subscriber that copies what it needs inside the
// callback, a monitor that hands every classified burst back to the
// assembler (Config.RecycleFlows, what every tenant runs) is
// indistinguishable from one that never reuses a flow — same callbacks
// in the same order with the same burst contents, same MarshalState
// bytes mid-stream and at the end. The negative
// control is the subscriber the contract forbids: one that keeps e.Flow
// sees its bursts rewritten under it, so the test would notice if
// recycling silently stopped happening.
func TestRecycleFlowsIsInvisible(t *testing.T) {
	f := getFixture(t)
	f.pipe.Periodic.Reset()
	for seed := int64(1); seed <= 8; seed++ {
		steps := randomGroupStream(f, seed)
		got := runGated(t, f, steps, false, true)
		want := runGated(t, f, steps, false, false)
		if want.stats.Flows == 0 {
			t.Fatalf("seed %d: stream classifies nothing", seed)
		}
		sameRun(t, seed, "recycling", got, "without", want)

		if n := staleFlows(want); n != 0 {
			t.Errorf("seed %d: %d retained flows changed without recycling", seed, n)
		}
		if n := staleFlows(got); n == 0 {
			t.Errorf("seed %d: none of %d retained flows was reused: recycling is not happening", seed, len(got.flows))
		}
	}
}
