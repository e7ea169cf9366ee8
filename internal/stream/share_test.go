package stream

import (
	"bytes"
	"testing"

	"behaviot/internal/core"
)

// TestMonitorsShareOnePipeline pins the contract a fleet of homes rests
// on: two monitors over one *core.Pipeline, fed different streams
// interleaved step by step, are indistinguishable from two monitors over
// private UnmarshalPipeline copies — the same callbacks in the same
// order and the same MarshalState bytes — and the shared pipeline
// marshals to the same bytes after the run as before it.
func TestMonitorsShareOnePipeline(t *testing.T) {
	f := getFixture(t)
	streams := [][]gateStep{randomGroupStream(f, 3), randomGroupStream(f, 4)}
	shared := f.pipe
	before := core.MarshalPipeline(shared)

	type run struct {
		log   []string
		state []byte
	}
	// replay runs one monitor per stream, each over the pipeline pipeFor
	// hands it, interleaving the streams one step at a time.
	replay := func(pipeFor func() *core.Pipeline) []run {
		runs := make([]run, len(streams))
		ms := make([]*Monitor, len(streams))
		for k := range ms {
			r := &runs[k]
			ms[k] = NewMonitor(pipeFor(), f.monitorConfig(), Config{
				OnEvent:     func(e Event) { r.log = append(r.log, eventLine(e)) },
				OnDeviation: func(d Deviation) { r.log = append(r.log, deviationLine(d)) },
			})
		}
		for i := 0; i < len(streams[0]) || i < len(streams[1]); i++ {
			for k, m := range ms {
				if i >= len(streams[k]) {
					continue
				}
				if s := streams[k][i]; s.p != nil {
					m.Feed(s.p)
				} else {
					m.Tick(s.tick)
				}
			}
		}
		for k, m := range ms {
			m.Close()
			runs[k].state = m.MarshalState()
		}
		return runs
	}

	got := replay(func() *core.Pipeline { return shared })
	want := replay(func() *core.Pipeline {
		p, err := core.UnmarshalPipeline(before)
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	for k := range streams {
		if len(want[k].log) == 0 {
			t.Fatalf("stream %d: no callbacks; the test shows nothing", k)
		}
		if len(got[k].log) != len(want[k].log) {
			t.Errorf("stream %d: %d callbacks over the shared pipeline, %d over a private copy", k, len(got[k].log), len(want[k].log))
		}
		for i := 0; i < len(got[k].log) && i < len(want[k].log); i++ {
			if got[k].log[i] != want[k].log[i] {
				t.Fatalf("stream %d: callback %d differs:\n shared:  %s\n private: %s", k, i, got[k].log[i], want[k].log[i])
			}
		}
		if !bytes.Equal(got[k].state, want[k].state) {
			t.Errorf("stream %d: MarshalState bytes differ between shared and private pipelines", k)
		}
	}
	if !bytes.Equal(core.MarshalPipeline(shared), before) {
		t.Error("monitors wrote to the pipeline they share")
	}
}
