package fleet

import (
	"bytes"
	"testing"

	"behaviot/internal/modelstore"
)

// TestDeltaCheckpointBytesBudget checkpoints one ingest workload at the
// same cadence twice, with the real checkpoint payloads (monitor and
// tenant snapshots), not synthetic bytes: once writing a full
// generation every time, once under -store-full-every 8. It pins what
// differential checkpointing still guarantees — deltas are written, and
// the chain materializes byte-identical to the full-every-time run's
// newest generation — and logs the byte counts. It pins no saving: on
// these ≈1.4 KB generations the deltas cost 51% of writing fulls
// (11209 vs 22023 bytes), and whether that pays for the differential
// machinery is an open verdict (DESIGN.md, "Earn-its-keep verdicts").
// Checkpoints are driven by hand (no CheckpointInterval) so both runs
// land exactly one generation per ingest step.
func TestDeltaCheckpointBytesBudget(t *testing.T) {
	fx := getFixture(t)
	recs := fx.classes[0]
	const steps = 16
	chunk := len(recs) / steps
	if chunk == 0 {
		t.Fatalf("fixture class too small: %d records", len(recs))
	}

	run := func(fullEvery int) (modelstore.WriteStats, map[string][]byte) {
		cfg := baseConfig(t, fx, 1, t.TempDir())
		cfg.StoreFullEvery = fullEvery
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tn, err := d.Add("home-1", "tok")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			ingestAll(t, tn, recs[i*chunk:(i+1)*chunk])
			tn.Checkpoint()
		}
		ws := tn.store.Stats() // before Close lands its extra final checkpoint
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return ws, tenantArtifacts(t, cfg, "home-1").files
	}

	full, fullFiles := run(1)
	delta, deltaFiles := run(8)

	if full.Fulls != steps || full.Deltas != 0 {
		t.Fatalf("full-every-time run wrote %d fulls + %d deltas, want %d + 0", full.Fulls, full.Deltas, steps)
	}
	if delta.Deltas == 0 {
		t.Fatal("differential run wrote no deltas; FullEvery is not wired through")
	}
	for _, name := range oracleFiles {
		if !bytes.Equal(deltaFiles[name], fullFiles[name]) {
			t.Errorf("differential chain materializes a different %s than the full-every-time run", name)
		}
	}
	fullCost := full.FullBytes
	deltaCost := delta.FullBytes + delta.DeltaBytes
	if fullCost == 0 {
		t.Fatal("full-every-time run wrote zero payload bytes")
	}
	t.Logf("checkpoint bytes: full-every-time %d, differential %d (%.1f%%), %d fulls + %d deltas",
		fullCost, deltaCost, 100*float64(deltaCost)/float64(fullCost), delta.Fulls, delta.Deltas)
}
