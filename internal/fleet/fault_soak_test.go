package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"behaviot/internal/faultfs"
	"behaviot/internal/modelstore"
)

// soakDir places a soak run's artifacts. Normally a TempDir; when
// BEHAVIOT_SOAK_DIR is set (the CI soak jobs set it), the run lands
// under a stable path that is kept on failure — event logs, stores,
// and snapshots become uploadable CI artifacts instead of vanishing
// with the test sandbox.
func soakDir(t *testing.T) string {
	base := os.Getenv("BEHAVIOT_SOAK_DIR")
	if base == "" {
		return t.TempDir()
	}
	dir := filepath.Join(base, strings.ReplaceAll(t.Name(), "/", "_"))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
		}
	})
	return dir
}

// waitFor polls cond until it holds or the soak deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFaultSoakPanicIsolation is the supervision layer's core gate: an
// induced panic inside one tenant's feed path quarantines exactly that
// tenant — every other tenant's event log and final snapshot stays
// byte-identical to its single-tenant reference run — and the
// quarantined tenant comes back through POST /tenants/{id}/restart,
// resuming from its last durable checkpoint.
func TestFaultSoakPanicIsolation(t *testing.T) {
	const tenants = 24
	const victimID = "home-000"
	fx := getFixture(t)

	refs := make([]refRun, numStreamClasses)
	for k := range refs {
		refs[k] = runReference(t, fx, k, runThrough)
	}

	dir := soakDir(t)
	cfg := baseConfig(t, fx, 4, dir)
	var armed atomic.Bool
	cfg.PanicProbe = func(id string) {
		if id == victimID && armed.Load() {
			panic("faultsoak: injected tenant panic")
		}
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := newControlServer(t, d)

	tns := make([]*Tenant, tenants)
	for i := range tns {
		tn, err := d.Add(fmt.Sprintf("home-%03d", i), fmt.Sprintf("tok-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		tns[i] = tn
	}
	victim := tns[0]
	victimClass := fx.classes[0]
	half := len(victimClass) / 2

	// Phase 1: the victim replays its first half and lands a durable
	// checkpoint — the state its restart must resume from.
	ingestAll(t, victim, victimClass[:half])
	victim.Checkpoint()
	if victim.storeGen.Load() == 0 {
		t.Fatal("victim checkpoint did not land")
	}
	ckptReceived := victim.received.Load()

	// Phase 2: every other tenant replays its full stream concurrently
	// while the victim's next batch detonates the injected panic.
	armed.Store(true)
	var wg sync.WaitGroup
	for i := 1; i < tenants; i++ {
		wg.Add(1)
		go func(i int, tn *Tenant) {
			defer wg.Done()
			for _, r := range fx.classes[i%numStreamClasses] {
				if err := tn.IngestRecord(r.Time, r.Data, nil); err != nil {
					t.Errorf("tenant %s: %v", tn.ID, err)
					return
				}
			}
		}(i, tns[i])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, r := range victimClass[half:] {
			// Acceptance before the quarantine flips is fine; once it
			// does, the distinct error is the contract.
			if err := victim.IngestRecord(r.Time, r.Data, nil); err != nil {
				if err != ErrTenantQuarantined {
					t.Errorf("victim ingest error = %v, want ErrTenantQuarantined", err)
				}
				return
			}
		}
	}()
	wg.Wait()
	waitFor(t, "victim quarantine", func() bool { return victim.Health() == Quarantined })
	armed.Store(false)

	// The fence holds: ingest is rejected with the distinct error.
	r0 := victimClass[0]
	if err := victim.IngestRecord(r0.Time, r0.Data, nil); err != ErrTenantQuarantined {
		t.Errorf("quarantined ingest error = %v, want ErrTenantQuarantined", err)
	}
	// The panic is on the victim's event log (stack line), and the
	// fleet rollups see exactly one quarantined tenant.
	logData, err := os.ReadFile(filepath.Join(cfg.EventLogDir, victimID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(logData, []byte(`"type":"panic"`)) {
		t.Error("victim event log has no panic record")
	}
	if !bytes.Contains(logData, []byte("injected tenant panic")) {
		t.Error("victim event log panic record lacks the panic value")
	}
	if deg, q := healthCounts(d.List()); q != 1 {
		t.Errorf("healthCounts = (%d degraded, %d quarantined), want exactly 1 quarantined", deg, q)
	}
	// A quarantined tenant fails the probe at the status-code level too:
	// 503, so monitors keying on the code alone see the outage.
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"quarantined": 1`)) {
		t.Errorf("/healthz = %d %s, want 503 with quarantined: 1", resp.StatusCode, body)
	}

	// Recovery: POST /tenants/{id}/restart rebuilds the victim from its
	// last durable checkpoint.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/tenants/"+victimID+"/restart", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST restart = %d: %s", resp.StatusCode, body)
	}
	revived := d.Get(victimID)
	if revived == nil || revived == victim {
		t.Fatal("restart did not produce a new tenant incarnation")
	}
	if revived.Health() != Healthy {
		t.Errorf("revived health = %v, want healthy", revived.Health())
	}
	if got := revived.storeGen.Load(); got != victim.storeGen.Load() {
		t.Errorf("revived generation = %d, want the pre-panic checkpoint %d", got, victim.storeGen.Load())
	}
	if got := revived.received.Load(); got != ckptReceived {
		t.Errorf("revived received_records = %d, want the checkpointed %d", got, ckptReceived)
	}
	if got := revived.panics.Load(); got == 0 {
		t.Error("revived tenant lost its panic history (crash-loop budget accounting)")
	}
	// And it ingests again.
	if err := revived.IngestRecord(r0.Time, r0.Data, nil); err != nil {
		t.Errorf("revived ingest: %v", err)
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The isolation oracle: every non-faulted tenant is byte-identical
	// to its single-tenant reference.
	for i := 1; i < tenants; i++ {
		tn, ref := tns[i], refs[i%numStreamClasses]
		logData, err := os.ReadFile(filepath.Join(cfg.EventLogDir, tn.ID+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(logData, ref.eventLog) {
			t.Errorf("tenant %s event log diverged from its reference (%d vs %d bytes)",
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
				t.Errorf("tenant %s final %s diverged from its reference", tn.ID, name)
			}
		}
	}
}

// TestFaultSoakCrashLoopBudget pins the restart ceiling: a tenant that
// keeps panicking is restartable only crashLoopBudget times; the next
// restart is refused with 409 and the tenant stays quarantined.
func TestFaultSoakCrashLoopBudget(t *testing.T) {
	fx := getFixture(t)
	cfg := baseConfig(t, fx, 1, soakDir(t))
	var armed atomic.Bool
	cfg.PanicProbe = func(string) {
		if armed.Load() {
			panic("faultsoak: crash loop")
		}
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := newControlServer(t, d)
	tn, err := d.Add("loop-1", "tok")
	if err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	crash := func(tn *Tenant) {
		t.Helper()
		recs := fx.classes[0]
		for _, r := range recs[:50] {
			if err := tn.IngestRecord(r.Time, r.Data, nil); err != nil {
				break
			}
		}
		waitFor(t, "quarantine", func() bool { return tn.Health() == Quarantined })
	}

	crash(tn)
	for i := 0; i < crashLoopBudget; i++ {
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/tenants/loop-1/restart", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restart %d = %d: %s", i+1, resp.StatusCode, body)
		}
		crash(d.Get("loop-1"))
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/tenants/loop-1/restart", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("restart beyond budget = %d: %s, want 409", resp.StatusCode, body)
	}
	if got := d.Get("loop-1").Health(); got != Quarantined {
		t.Errorf("tenant past crash-loop budget is %v, want quarantined", got)
	}
}

// TestFaultSoakCheckpointRetry drives the Degraded arc end to end with
// injected storage faults: a transient checkpoint failure degrades the
// tenant and fires the failure counter and checkpoint-age alarm on
// /metrics; once the fault clears, the housekeeper's next interval
// tick lands a durable checkpoint, health returns to Healthy, and the
// store's CRC manifest walk shows no lost generations.
func TestFaultSoakCheckpointRetry(t *testing.T) {
	fx := getFixture(t)
	const victimID = "home-f"
	inj := faultfs.New(faultfs.OS{})
	cfg := baseConfig(t, fx, 2, soakDir(t))
	cfg.StoreFS = inj
	cfg.CheckpointInterval = 50 * time.Millisecond
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := newControlServer(t, d)

	victim, err := d.Add(victimID, "tok")
	if err != nil {
		t.Fatal(err)
	}
	neighbor, err := d.Add("home-n", "tok")
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, victim, fx.classes[0][:200])
	ingestAll(t, neighbor, fx.classes[1][:200])

	// A clean first generation, then the victim's store goes bad — only
	// the victim's: the injector is path-scoped to its tenant dir.
	waitFor(t, "first durable checkpoint", func() bool { return victim.storeGen.Load() >= 1 })
	preFault := victim.storeGen.Load()
	inj.SetRules(faultfs.FailOp{
		Kind: faultfs.OpWrite, Nth: 1, Count: 1 << 30,
		PathContains: filepath.Join("tenants", victimID) + string(os.PathSeparator),
	})

	waitFor(t, "checkpoint failure to degrade the victim", func() bool {
		return victim.Health() == Degraded && victim.ckptFailuresTotal.Load() >= 1
	})
	if h := neighbor.Health(); h != Healthy {
		t.Errorf("neighbor health = %v during victim's storage fault, want healthy", h)
	}
	waitFor(t, "checkpoint-age alarm", func() bool { return victim.checkpointAgeAlarm() })

	// The degradation is on /metrics: failure counter, health gauge,
	// age alarm, fleet rollup.
	_, body := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf("behaviot_tenant_health{tenant=%q} 1", victimID),
		fmt.Sprintf("behaviot_tenant_checkpoint_age_alarm{tenant=%q} 1", victimID),
		"behaviot_fleet_degraded 1",
		`behaviot_tenant_health{tenant="home-n"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q during fault", want)
		}
	}
	if strings.Contains(text, fmt.Sprintf("behaviot_tenant_checkpoint_failures_total{tenant=%q} 0", victimID)) {
		t.Error("/metrics shows zero checkpoint failures during fault")
	}
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"status": "degraded"`)) {
		t.Errorf("/healthz during fault = %s, want degraded", body)
	}

	// Fault clears; the next interval tick lands a checkpoint and the
	// tenant recovers without operator action.
	inj.SetRules()
	waitFor(t, "retry to land a durable checkpoint", func() bool {
		return victim.storeGen.Load() > preFault && victim.Health() == Healthy
	})
	// Success clears the streak and the retry schedule; the lifetime
	// counter is monotonic and stays on /status.
	if streak, retryAt := victim.ckptFailures.Load(), victim.ckptRetryAtUnix.Load(); streak != 0 || retryAt != 0 {
		t.Errorf("after recovery: failure streak %d, retry scheduled at %d; want both cleared", streak, retryAt)
	}
	if got := victim.Status()["checkpoint_failures_total"].(int64); got < 1 {
		t.Errorf("checkpoint_failures_total = %d after recovery, want the fault window's failures kept", got)
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// No lost generations: the CRC manifest walk over the victim's
	// store finds the pre-fault generation and everything after it
	// intact.
	s, err := modelstore.OpenTenant(cfg.StoreRoot, victimID, modelstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	infos, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	var intact []int
	for _, info := range infos {
		if info.Intact {
			intact = append(intact, info.Generation)
		}
	}
	if len(intact) == 0 {
		t.Fatal("CRC walk found no intact generations")
	}
	found := false
	for _, g := range intact {
		if int64(g) == preFault {
			found = true
		}
	}
	// The pre-fault generation survives unless retention pruned it —
	// and with a fault window this short it must still be there.
	if !found && preFault >= int64(intact[0]) {
		t.Errorf("pre-fault generation %d lost; intact: %v", preFault, intact)
	}
	if snap, err := s.Load(cfg.Fingerprint); err != nil {
		t.Errorf("victim store unloadable after fault cycle: %v", err)
	} else if snap.Generation < int(preFault) {
		t.Errorf("newest intact generation %d older than pre-fault %d", snap.Generation, preFault)
	}
}

// TestCheckpointPanicReleasesShardLock pins the checkpoint supervision
// boundary's lock discipline: a panic while marshaling (here, a
// poisoned monitor) must quarantine the tenant AND release the shard
// lock — a held shardMu would deadlock feeds and checkpoints for every
// neighbor on the shard.
func TestCheckpointPanicReleasesShardLock(t *testing.T) {
	fx := getFixture(t)
	cfg := baseConfig(t, fx, 1, t.TempDir())
	// Checkpoints are driven by hand; keep the housekeeper asleep so it
	// cannot race the monitor poisoning below.
	cfg.CheckpointInterval = time.Hour
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	victim, err := d.Add("home-v", "tok")
	if err != nil {
		t.Fatal(err)
	}
	neighbor, err := d.Add("home-n", "tok") // one shard: same lock as the victim
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, victim, fx.classes[0][:100])
	victim.Checkpoint()
	if victim.storeGen.Load() < 1 {
		t.Fatal("no clean generation before the induced panic")
	}

	// Poison the marshal path: a nil monitor panics inside the
	// shard-locked marshal closure.
	victim.shardMu.Lock()
	victim.monitor = nil
	victim.shardMu.Unlock()
	victim.Checkpoint()

	if h := victim.Health(); h != Quarantined {
		t.Fatalf("victim health after checkpoint panic = %v, want quarantined", h)
	}
	if !victim.shardMu.TryLock() {
		t.Fatal("checkpoint panic left the shard lock held")
	}
	victim.shardMu.Unlock()

	// Neighbors on the same shard keep checkpointing.
	ingestAll(t, neighbor, fx.classes[1][:100])
	neighbor.Checkpoint()
	if neighbor.storeGen.Load() < 1 {
		t.Error("neighbor could not land a checkpoint after the victim's panic")
	}
	if h := neighbor.Health(); h != Healthy {
		t.Errorf("neighbor health = %v, want healthy", h)
	}
}

// TestQuarantineSticky pins the FSM's terminal state: once a tenant is
// quarantined, neither a direct setHealth nor a reevaluation may
// un-fence it — the race this guards is a panic quarantine landing
// between a reevaluation's health check and its store.
func TestQuarantineSticky(t *testing.T) {
	fx := getFixture(t)
	cfg := baseConfig(t, fx, 1, t.TempDir())
	cfg.CheckpointInterval = time.Hour
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}

	tn.forceQuarantine("test-induced")
	tn.setHealth(Healthy, "racing reevaluation")
	if h := tn.Health(); h != Quarantined {
		t.Fatalf("setHealth(Healthy) escaped quarantine: health = %v", h)
	}
	tn.setHealth(Degraded, "racing reevaluation")
	if h := tn.Health(); h != Quarantined {
		t.Fatalf("setHealth(Degraded) escaped quarantine: health = %v", h)
	}
	tn.reevaluateHealth("racing reevaluation")
	if h := tn.Health(); h != Quarantined {
		t.Fatalf("reevaluateHealth escaped quarantine: health = %v", h)
	}
}

// TestRestartFailureLeavesQuarantinedPlaceholder pins the recovery
// path's failure mode: when a quarantined tenant's rebuild itself
// fails (here, a directory squatting on its event-log path), the
// tenant must not vanish from the registry — it stays visible and
// quarantined, keeps rejecting ingest with the distinct error, and a
// later restart succeeds once the fault clears.
func TestRestartFailureLeavesQuarantinedPlaceholder(t *testing.T) {
	fx := getFixture(t)
	cfg := baseConfig(t, fx, 1, t.TempDir())
	cfg.CheckpointInterval = time.Hour
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := newControlServer(t, d)

	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, tn, fx.classes[0][:100])
	tn.Checkpoint()
	tn.forceQuarantine("test-induced")

	// Break the rebuild: the new incarnation cannot open its event log.
	logPath := filepath.Join(cfg.EventLogDir, "home-1.jsonl")
	if err := os.Remove(logPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(logPath, 0o755); err != nil {
		t.Fatal(err)
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/tenants/home-1/restart", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("restart with broken event-log path = %d: %s, want 500", resp.StatusCode, body)
	}

	// The tenant is still registered, still fenced, still counted.
	got := d.Get("home-1")
	if got == nil {
		t.Fatal("failed restart removed the tenant from the registry")
	}
	if h := got.Health(); h != Quarantined {
		t.Fatalf("placeholder health = %v, want quarantined", h)
	}
	r0 := fx.classes[0][0]
	if err := got.IngestRecord(r0.Time, r0.Data, nil); err != ErrTenantQuarantined {
		t.Errorf("placeholder ingest error = %v, want ErrTenantQuarantined", err)
	}
	if _, q := healthCounts(d.List()); q != 1 {
		t.Errorf("healthCounts quarantined = %d, want 1", q)
	}
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"quarantined": 1`)) {
		t.Errorf("/healthz = %d %s, want 503 with quarantined: 1", resp.StatusCode, body)
	}

	// Fault clears; the retried restart rebuilds from the last durable
	// checkpoint and the tenant ingests again.
	if err := os.Remove(logPath); err != nil {
		t.Fatal(err)
	}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/tenants/home-1/restart", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried restart = %d: %s", resp.StatusCode, body)
	}
	revived := d.Get("home-1")
	if revived == nil || revived == got {
		t.Fatal("retried restart did not produce a new incarnation")
	}
	if h := revived.Health(); h != Healthy {
		t.Errorf("revived health = %v, want healthy", h)
	}
	if revived.restarts.Load() == 0 {
		t.Error("revived tenant lost its restart count")
	}
	if err := revived.IngestRecord(r0.Time, r0.Data, nil); err != nil {
		t.Errorf("revived ingest: %v", err)
	}
}
