package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/modelstore"
	"behaviot/internal/pcapio"
)

// refRun is one single-tenant reference: the event-log bytes and final
// snapshot files a tenant MUST produce when it replays its class alone
// in a dedicated single-shard daemon.
type refRun struct {
	eventLog []byte
	files    map[string][]byte
}

// oracleFiles are the snapshot files the oracles compare byte-for-byte:
// all a tenant generation holds. The periodic timer anchors, the one
// piece of classifier state a home writes, live in FileMonitor; a tenant
// whose anchors were written by a neighbor sharing the trained model
// would diverge there first (TestFleetSoakSharedModel).
var oracleFiles = []string{modelstore.FileMonitor, modelstore.FileTenant}

// lifecycle is what happens to a tenant three quarters of the way
// through its stream.
type lifecycle int

const (
	runThrough lifecycle = iota // ingest the whole stream
	restartMid                  // Restart, then ingest the rest
	removeMid                   // Remove; the rest is never sent
)

// replayLife ingests recs into tenant id of d, applying op three
// quarters of the way through.
func replayLife(d *Daemon, id string, recs []pcapio.Record, op lifecycle) error {
	tn := d.Get(id)
	for k, r := range recs {
		if k == len(recs)*3/4 && op != runThrough {
			if op == removeMid {
				return d.Remove(id)
			}
			var err error
			if tn, err = d.Restart(id); err != nil {
				return err
			}
		}
		if err := tn.IngestRecord(r.Time, r.Data, nil); err != nil {
			return fmt.Errorf("tenant %s: %w", id, err)
		}
	}
	return nil
}

// tenantArtifacts reads what tenant id left behind: its event log and
// the files of its newest checkpoint.
func tenantArtifacts(t *testing.T, cfg Config, id string) refRun {
	t.Helper()
	logData, err := os.ReadFile(filepath.Join(cfg.EventLogDir, id+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := modelstore.OpenTenant(cfg.StoreRoot, id, modelstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Load(cfg.Fingerprint)
	if err != nil {
		t.Fatalf("tenant %s final checkpoint: %v", id, err)
	}
	return refRun{eventLog: logData, files: snap.Files}
}

// runReference replays one class in a fresh single-tenant, single-shard
// daemon, with op applied as replayLife does, and captures its artifacts.
func runReference(t *testing.T, fx *fleetFixture, class int, op lifecycle) refRun {
	t.Helper()
	cfg := baseConfig(t, fx, 1, t.TempDir())
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add("ref", "tok"); err != nil {
		t.Fatal(err)
	}
	if err := replayLife(d, "ref", fx.classes[class], op); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ref := tenantArtifacts(t, cfg, "ref")
	if len(ref.eventLog) == 0 {
		t.Fatalf("class %d reference produced an empty event log; the oracle would be vacuous", class)
	}
	return ref
}

// TestFleetSoakIsolationOracle is the fleet's core correctness gate:
// many tenants replaying concurrently through one daemon must each
// produce BYTE-IDENTICAL event logs and final snapshots to a
// single-tenant daemon replaying the same stream alone — for every
// shard count. Any cross-tenant bleed (shared model state, misrouted
// packets, interleaved logs, store collisions) breaks byte identity
// somewhere. Tenant i replays stream class i%numStreamClasses, so
// numStreamClasses reference runs cover the whole fleet.
func TestFleetSoakIsolationOracle(t *testing.T) {
	const tenants = 100
	fx := getFixture(t)

	refs := make([]refRun, numStreamClasses)
	for k := range refs {
		refs[k] = runReference(t, fx, k, runThrough)
	}

	shardCounts := []int{1, 4, runtime.NumCPU()}
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			dir := soakDir(t)
			cfg := baseConfig(t, fx, shards, dir)
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tns := make([]*Tenant, tenants)
			for i := range tns {
				tn, err := d.Add(fmt.Sprintf("home-%03d", i), fmt.Sprintf("tok-%03d", i))
				if err != nil {
					t.Fatal(err)
				}
				tns[i] = tn
			}

			// All tenants replay concurrently — this is where cross-tenant
			// interference would happen if it could.
			var wg sync.WaitGroup
			for i, tn := range tns {
				wg.Add(1)
				go func(i int, tn *Tenant) {
					defer wg.Done()
					for _, r := range fx.classes[i%numStreamClasses] {
						if err := tn.IngestRecord(r.Time, r.Data, nil); err != nil {
							t.Errorf("tenant %s: %v", tn.ID, err)
							return
						}
					}
				}(i, tn)
			}
			wg.Wait()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			// Per-tenant counters must sum to exactly the records sent.
			var sent, received int64
			for i, tn := range tns {
				sent += int64(len(fx.classes[i%numStreamClasses]))
				received += tn.received.Load()
			}
			if received != sent {
				t.Errorf("fleet received %d records, %d were sent", received, sent)
			}

			for i, tn := range tns {
				ref := refs[i%numStreamClasses]
				logData, err := os.ReadFile(filepath.Join(cfg.EventLogDir, tn.ID+".jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(logData, ref.eventLog) {
					t.Errorf("tenant %s event log diverged from its single-tenant reference (%d vs %d bytes)",
						tn.ID, len(logData), len(ref.eventLog))
					continue
				}
				s, err := modelstore.OpenTenant(cfg.StoreRoot, tn.ID, modelstore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				snap, err := s.Load(cfg.Fingerprint)
				if err != nil {
					t.Fatalf("tenant %s final checkpoint: %v", tn.ID, err)
				}
				for _, name := range oracleFiles {
					if !bytes.Equal(snap.Files[name], ref.files[name]) {
						t.Errorf("tenant %s final %s diverged from its single-tenant reference (%d vs %d bytes)",
							tn.ID, name, len(snap.Files[name]), len(ref.files[name]))
					}
				}
			}
		})
	}
}

// TestFleetSoakSharedModel is the sharing oracle: every tenant
// classifies over the daemon's one trained pipeline and keeps only its
// own timer anchors. Sixteen tenants on two shards ingest concurrently
// under 5 ms checkpoints while one tenant is Restarted and another
// Removed mid-stream; each tenant's event log, monitor.snap and tenant.snap
// must equal those of a single-tenant daemon that replays the same
// stream through the same lifecycle, and the shared model must still
// marshal to exactly the snapshot the daemon was built from. A home
// whose anchors landed in the shared pipeline, or in a neighbor, breaks
// byte identity here.
func TestFleetSoakSharedModel(t *testing.T) {
	const tenants = 16
	fx := getFixture(t)
	life := func(i int) lifecycle {
		switch i {
		case 2:
			return restartMid
		case 5:
			return removeMid
		}
		return runThrough
	}
	refs := make([]refRun, tenants)
	for i := range refs {
		refs[i] = runReference(t, fx, i%numStreamClasses, life(i))
	}

	cfg := baseConfig(t, fx, 2, soakDir(t))
	cfg.CheckpointInterval = 5 * time.Millisecond
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("home-%d", i)
		if _, err := d.Add(ids[i], "tok"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			if err := replayLife(d, id, fx.classes[i%numStreamClasses], life(i)); err != nil {
				t.Error(err)
			}
		}(i, id)
	}
	wg.Wait()
	live := d.List()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var ckpts int64
	for _, tn := range live {
		ckpts += tn.checkpointsTotal.Load()
	}
	if ckpts <= int64(len(live)) {
		t.Errorf("%d checkpoints over %d tenants: the housekeeper never checkpointed mid-stream", ckpts, len(live))
	}

	for i, id := range ids {
		got := tenantArtifacts(t, cfg, id)
		if !bytes.Equal(got.eventLog, refs[i].eventLog) {
			t.Errorf("tenant %s event log diverged from its single-tenant reference (%d vs %d bytes)",
				id, len(got.eventLog), len(refs[i].eventLog))
		}
		for _, name := range oracleFiles {
			if !bytes.Equal(got.files[name], refs[i].files[name]) {
				t.Errorf("tenant %s final %s diverged from its single-tenant reference (%d vs %d bytes)",
					id, name, len(got.files[name]), len(refs[i].files[name]))
			}
		}
	}
	if !bytes.Equal(core.MarshalPipeline(d.pipe), cfg.PipeSnap) {
		t.Error("the shared model no longer marshals to the snapshot the daemon was built from")
	}
}
