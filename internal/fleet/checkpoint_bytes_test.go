package fleet

import (
	"testing"

	"behaviot/internal/modelstore"
)

// TestDeltaCheckpointBytesBudget pins the economics that justify
// differential checkpointing at fleet scale, with the real checkpoint
// payloads (pipeline, monitor, tenant snapshots), not synthetic bytes:
// the same ingest workload checkpointed at the same cadence must cost
// at most 40% of the bytes under -store-full-every 8 that it costs
// writing a full generation every time. Checkpoints are driven by hand
// (no CheckpointInterval) so both runs land exactly one generation per
// ingest step.
func TestDeltaCheckpointBytesBudget(t *testing.T) {
	fx := getFixture(t)
	recs := fx.classes[0]
	const steps = 16
	chunk := len(recs) / steps
	if chunk == 0 {
		t.Fatalf("fixture class too small: %d records", len(recs))
	}

	run := func(fullEvery int) modelstore.WriteStats {
		dir := t.TempDir()
		cfg := baseConfig(t, fx, 1, dir)
		cfg.StoreFullEvery = fullEvery
		// Retention must not interfere with the byte accounting; Stats
		// counts what was written either way, but keep runs identical.
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
		return ws
	}

	full := run(1)
	delta := run(8)

	if full.Fulls != steps || full.Deltas != 0 {
		t.Fatalf("full-every-time run wrote %d fulls + %d deltas, want %d + 0", full.Fulls, full.Deltas, steps)
	}
	if delta.Deltas == 0 {
		t.Fatal("differential run wrote no deltas; FullEvery is not wired through")
	}
	fullCost := full.FullBytes
	deltaCost := delta.FullBytes + delta.DeltaBytes
	if fullCost == 0 {
		t.Fatal("full-every-time run wrote zero payload bytes")
	}
	if limit := fullCost * 40 / 100; deltaCost > limit {
		t.Fatalf("differential checkpointing cost %d bytes (%d fulls + %d deltas) vs %d full-every-time; want <= %d (40%%)",
			deltaCost, delta.Fulls, delta.Deltas, fullCost, limit)
	}
	t.Logf("checkpoint bytes: full-every-time %d, differential %d (%.1f%%), %d fulls + %d deltas",
		fullCost, deltaCost, 100*float64(deltaCost)/float64(fullCost), delta.Fulls, delta.Deltas)
}
