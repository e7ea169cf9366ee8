package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/modelstore"
	"behaviot/internal/netparse"
	"behaviot/internal/pcapio"
	"behaviot/internal/pfsm"
	"behaviot/internal/stream"
	"behaviot/internal/testbed"
)

// numStreamClasses is how many distinct ingest streams the fixtures
// generate. The soak test spreads them over many tenants (tenant i
// replays class i%numStreamClasses), so the isolation oracle needs only
// numStreamClasses single-tenant reference runs to cover a fleet of any
// size.
const numStreamClasses = 8

// fleetFixture is the package's shared trained deployment: a marshaled
// pipeline snapshot, the assembler config that matches it, and one
// encoded record stream per class.
type fleetFixture struct {
	tb       *testbed.Testbed
	pipeSnap []byte
	acfg     flows.Config
	classes  [][]pcapio.Record
}

var ffx *fleetFixture

func getFixture(t *testing.T) *fleetFixture {
	t.Helper()
	if ffx != nil {
		return ffx
	}
	tb := testbed.New()
	devices := []*testbed.DeviceProfile{
		tb.Device("TPLink Plug"), tb.Device("Ring Camera"), tb.Device("Gosund Bulb"),
	}
	idle := datasets.Idle(tb, 1, datasets.DefaultStart, 1, devices, 0)
	labeled := map[string][]*flows.Flow{}
	for _, s := range datasets.Activity(tb, 2, 10, 0) {
		for _, d := range devices {
			if s.Device == d.Name {
				labeled[s.Label] = append(labeled[s.Label], s.Flows...)
			}
		}
	}
	pipe, err := core.Train(idle, labeled, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	routine := datasets.Routine(tb, 3, datasets.DefaultStart.Add(7*24*time.Hour),
		datasets.RoutineConfig{Days: 1, RunsPerDay: 15, DirectPerDay: 3})
	var rfs []*flows.Flow
	for _, f := range routine.Flows {
		for _, d := range devices {
			if f.Device == d.Name {
				rfs = append(rfs, f)
			}
		}
	}
	pipe.Calibrate(pipe.TrainSystem(pipe.Classify(rfs), pfsm.Options{}))

	fx := &fleetFixture{
		tb:       tb,
		pipeSnap: core.MarshalPipeline(pipe),
		acfg:     flows.Config{LocalPrefix: tb.LocalPrefix, DeviceByIP: tb.DeviceByIP()},
	}
	for k := 0; k < numStreamClasses; k++ {
		recs, err := datasets.EncodePackets(classStream(tb, k))
		if err != nil {
			t.Fatalf("encoding class %d: %v", k, err)
		}
		if len(recs) < 100 {
			t.Fatalf("class %d stream has only %d records; too thin to exercise the monitor", k, len(recs))
		}
		fx.classes = append(fx.classes, recs)
	}
	ffx = fx
	return fx
}

// classStream generates one class's packet stream: periodic traffic for
// two devices, one user interaction, and (for even classes) a device
// dying mid-window so silence deviations land in the event log.
func classStream(tb *testbed.Testbed, k int) []*netparse.Packet {
	g := testbed.NewGenerator(tb, int64(100+k))
	plug := tb.Device("TPLink Plug")
	bulb := tb.Device("Gosund Bulb")
	start := datasets.DefaultStart.Add(time.Duration(3*24+k) * time.Hour)
	streams := [][]*netparse.Packet{
		g.BootstrapDNS(plug, start.Add(-time.Minute)),
		g.BootstrapDNS(bulb, start.Add(-50*time.Second)),
		g.PeriodicWindow(plug, start, start.Add(3*time.Hour)),
		g.Activity(plug, plug.Activity("on"), start.Add(time.Hour), k),
	}
	// The bulb always dies mid-window — at a class-specific time — so
	// every class is guaranteed silence deviations (a non-empty event
	// log, which the isolation oracle requires to be non-vacuous) while
	// classes stay mutually distinct.
	bulbEnd := start.Add(45*time.Minute + time.Duration(k)*7*time.Minute)
	streams = append(streams, g.PeriodicWindow(bulb, start, bulbEnd))
	return testbed.MergePackets(streams...)
}

// baseConfig assembles a fleet config over the fixture with per-test
// store and event-log directories.
func baseConfig(t *testing.T, fx *fleetFixture, shards int, dir string) Config {
	t.Helper()
	logDir := filepath.Join(dir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return Config{
		Shards:       shards,
		PipeSnap:     fx.pipeSnap,
		Fingerprint:  "fleet-test/v1",
		AssemblerCfg: fx.acfg,
		StreamCfg:    stream.Config{},
		StoreRoot:    filepath.Join(dir, "store"),
		EventLogDir:  logDir,
	}
}

// ingestAll replays one class's records into a tenant sequentially.
func ingestAll(t *testing.T, tn *Tenant, recs []pcapio.Record) {
	t.Helper()
	for _, r := range recs {
		if err := tn.IngestRecord(r.Time, r.Data, nil); err != nil {
			t.Fatalf("IngestRecord: %v", err)
		}
	}
}

func TestRingDeterministicAcrossInstances(t *testing.T) {
	a, b := NewRing(7), NewRing(7)
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("home-%04d", i)
		if a.Lookup(id) != b.Lookup(id) {
			t.Fatalf("placement of %s differs between identical rings", id)
		}
	}
}

func TestRingBalance(t *testing.T) {
	const shards, tenants = 8, 4000
	r := NewRing(shards)
	counts := make([]int, shards)
	for i := 0; i < tenants; i++ {
		counts[r.Lookup(fmt.Sprintf("home-%05d", i))]++
	}
	mean := float64(tenants) / shards
	for s, c := range counts {
		if f := float64(c) / mean; f < 0.5 || f > 1.5 {
			t.Errorf("shard %d holds %d tenants (%.2fx the mean); ring is badly unbalanced", s, c, f)
		}
	}
}

// TestRingStability pins the consistent-hashing property: growing the
// shard count relocates only a minority of tenants.
func TestRingStability(t *testing.T) {
	const tenants = 2000
	small, large := NewRing(8), NewRing(9)
	moved := 0
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("home-%05d", i)
		if small.Lookup(id) != large.Lookup(id) {
			moved++
		}
	}
	// Ideal is 1/9 ≈ 11%; allow generous slack over the vnode noise.
	if f := float64(moved) / tenants; f > 0.30 {
		t.Errorf("%.0f%% of tenants moved when adding one shard; want a consistent-hash minority", f*100)
	}
}

func TestRegistryValidation(t *testing.T) {
	fx := getFixture(t)
	d, err := New(baseConfig(t, fx, 2, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //lint:ignore errcheck fleet.Close always returns nil; deferred for cleanup only

	if _, err := d.Add("../escape", "tok"); !errors.Is(err, ErrBadTenantID) {
		t.Errorf("Add(../escape) = %v, want ErrBadTenantID", err)
	}
	if _, err := d.Add("home-1", ""); !errors.Is(err, ErrTokenRequired) {
		t.Errorf("Add with empty token = %v, want ErrTokenRequired", err)
	}
	if _, err := d.Add("home-1", "has space"); err == nil {
		t.Error("Add with spacey token succeeded, want error")
	}
	if _, err := d.Add("home-1", "tok-1"); err != nil {
		t.Fatalf("Add(home-1): %v", err)
	}
	if _, err := d.Add("home-1", "tok-other"); !errors.Is(err, ErrTenantExists) {
		t.Errorf("duplicate Add = %v, want ErrTenantExists", err)
	}
	if err := d.Remove("nope"); !errors.Is(err, ErrTenantUnknown) {
		t.Errorf("Remove(nope) = %v, want ErrTenantUnknown", err)
	}

	if _, err := d.Authenticate("home-1", "tok-1"); err != nil {
		t.Errorf("Authenticate with the right token: %v", err)
	}
	if _, err := d.Authenticate("home-1", "wrong"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("Authenticate with a bad token = %v, want ErrUnauthorized", err)
	}
	if _, err := d.Authenticate("ghost", "tok-1"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("Authenticate for an unknown tenant = %v, want ErrUnauthorized", err)
	}
}

func TestParseTenantsFile(t *testing.T) {
	in := "# fleet roster\nhome-1,token-a\n\nhome-2 , token-b\n"
	got, err := ParseTenantsFile(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"home-1": "token-a", "home-2": "token-b"}
	if len(got) != len(want) {
		t.Fatalf("parsed %d tenants, want %d", len(got), len(want))
	}
	for id, tok := range want {
		if got[id] != tok {
			t.Errorf("tenant %s token = %q, want %q", id, got[id], tok)
		}
	}
	for _, bad := range []string{"home-1\n", "home-1,\n", ",tok\n", "home-1,a\nhome-1,b\n", "bad/id,tok\n"} {
		if _, err := ParseTenantsFile(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTenantsFile(%q) succeeded, want error", bad)
		}
	}
}

// TestDuplicateAddLeavesLiveTenantIntact pins the reservation fix: a
// duplicate Add must be rejected before any on-disk state is touched.
// The pre-fix code built the new tenant first, which truncated the
// live tenant's event log under its open handle (the live fd kept
// writing at its old offset, leaving a NUL hole) and checkpointed
// fresh state into the live tenant's store on the failure path.
func TestDuplicateAddLeavesLiveTenantIntact(t *testing.T) {
	fx := getFixture(t)
	cfg := baseConfig(t, fx, 2, t.TempDir())
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, tn, fx.classes[0][:200])
	// Land a deterministic log line through the tenant's own record
	// path (deviations from the replay only finalize at close, which
	// would be too late to snapshot a non-empty log here).
	tn.recordDeviation(stream.Deviation{
		Kind: core.DevPeriodic, Device: "Gosund Bulb",
		Detail: "went dark", Time: time.Unix(0, 0).UTC(),
	})
	tn.Checkpoint()
	genBefore := tn.storeGen.Load()
	logPath := filepath.Join(cfg.EventLogDir, "home-1.jsonl")
	logBefore, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(logBefore) == 0 {
		t.Fatal("event log empty after recording a deviation")
	}

	if _, err := d.Add("home-1", "tok-other"); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate Add = %v, want ErrTenantExists", err)
	}
	logAfterDup, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logAfterDup, logBefore) {
		t.Fatalf("duplicate Add disturbed the live event log (%d bytes vs %d)",
			len(logAfterDup), len(logBefore))
	}

	// The live tenant keeps working: another line lands and the final
	// log is the pre-duplicate bytes plus appended lines — no
	// truncation hole where the prefix used to be.
	tn.recordDeviation(stream.Deviation{
		Kind: core.DevPeriodic, Device: "TPLink Plug",
		Detail: "went dark", Time: time.Unix(1, 0).UTC(),
	})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tn.storeGen.Load(); got < genBefore {
		t.Errorf("store generation went backwards across the duplicate Add (%d -> %d)", genBefore, got)
	}
	logFinal, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(logFinal) < len(logBefore) || !bytes.Equal(logFinal[:len(logBefore)], logBefore) {
		t.Error("final event log does not extend the pre-duplicate log; the duplicate Add corrupted it")
	}
}

// TestTenantIngestAccounting pins the counter invariants one tenant
// maintains: received == fed + parseErrors, and the monitor consumes
// exactly the fed packets once drained.
func TestTenantIngestAccounting(t *testing.T) {
	fx := getFixture(t)
	d, err := New(baseConfig(t, fx, 2, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	recs := fx.classes[0]
	ingestAll(t, tn, recs)
	// A garbage record must count as a parse error, not kill anything.
	if err := tn.IngestRecord(recs[0].Time, []byte{0xde, 0xad}, nil); err != nil {
		t.Fatal(err)
	}

	received, fed, perr := tn.received.Load(), tn.fed.Load(), tn.parseErrors.Load()
	if received != int64(len(recs))+1 {
		t.Errorf("received = %d, want %d", received, len(recs)+1)
	}
	if perr != 1 {
		t.Errorf("parseErrors = %d, want 1", perr)
	}
	if received != fed+perr {
		t.Errorf("received(%d) != fed(%d) + parseErrors(%d)", received, fed, perr)
	}
	tn.shardMu.Lock()
	packets := tn.monitor.Stats().Packets
	tn.shardMu.Unlock()
	if packets != fed {
		t.Errorf("monitor consumed %d packets, want fed = %d", packets, fed)
	}

	status := tn.Status()
	for _, key := range []string{"tenant", "shard", "packets", "received_records", "fed_records", "queue_depth"} {
		if _, ok := status[key]; !ok {
			t.Errorf("Status() missing %q", key)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tn.IngestRecord(recs[0].Time, recs[0].Data, nil); !errors.Is(err, ErrTenantClosed) {
		t.Errorf("IngestRecord after Close = %v, want ErrTenantClosed", err)
	}
}

// TestTenantRemoveResume pins the remove→re-add lifecycle: Remove lands
// a final checkpoint and leaves the store on disk, and a later Add with
// Resume restores counters, rings, and the event-log high-water mark.
func TestTenantRemoveResume(t *testing.T) {
	fx := getFixture(t)
	dir := t.TempDir()
	cfg := baseConfig(t, fx, 2, dir)
	cfg.Resume = true
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	recs := fx.classes[0]
	ingestAll(t, tn, recs)
	if err := d.Remove("home-1"); err != nil {
		t.Fatal(err)
	}
	wantReceived := tn.received.Load()
	wantEvents := len(tn.Events())
	logPath := filepath.Join(cfg.EventLogDir, "home-1.jsonl")
	logBefore, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(logBefore) == 0 {
		t.Fatal("event log is empty after a full class replay; fixture no longer produces events")
	}
	if d.Get("home-1") != nil {
		t.Fatal("tenant still registered after Remove")
	}

	// Scribble past the checkpointed high-water mark: resume must
	// truncate the scribble away.
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"type\":\"garbage\"}\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	tn2, err := d.Add("home-1", "tok-new")
	if err != nil {
		t.Fatal(err)
	}
	if got := tn2.received.Load(); got != wantReceived {
		t.Errorf("restored received = %d, want %d", got, wantReceived)
	}
	if got := len(tn2.Events()); got != wantEvents {
		t.Errorf("restored %d ring events, want %d", got, wantEvents)
	}
	if tn2.storeGen.Load() == 0 {
		t.Error("restored tenant has no store generation; resume fell back to fresh")
	}
	logAfter, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logAfter, logBefore) {
		t.Errorf("event log not truncated back to the checkpointed high-water mark (%d vs %d bytes)",
			len(logAfter), len(logBefore))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSuspendResumeMatchesUninterrupted pins the stop-mid-capture seam:
// a tenant Suspended between two records and resumed in a new daemon
// must end with the event log and snapshots of a tenant that was never
// stopped, wherever the stop falls. Suspend checkpoints the monitor as
// it stands; had it finalized (as close does), the flows open at the
// stop point would have been flushed early and monitor.snap would
// differ at most of these cuts.
func TestSuspendResumeMatchesUninterrupted(t *testing.T) {
	fx := getFixture(t)
	const class = 0
	ref := runReference(t, fx, class, runThrough)
	recs := fx.classes[class]

	for cut := len(recs) / 9; cut < len(recs); cut += len(recs) / 9 {
		cfg := baseConfig(t, fx, 1, t.TempDir())
		cfg.Resume = true
		open := func() (*Daemon, *Tenant) {
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tn, err := d.Add("ref", "tok")
			if err != nil {
				t.Fatal(err)
			}
			return d, tn
		}
		d, tn := open()
		ingestAll(t, tn, recs[:cut])
		tn.Suspend()
		if err := tn.IngestRecord(recs[cut].Time, recs[cut].Data, nil); !errors.Is(err, ErrTenantClosed) {
			t.Fatalf("cut %d: ingest after Suspend = %v, want ErrTenantClosed", cut, err)
		}
		if err := d.Close(); err != nil { // the suspended tenant is already settled: Close adds nothing
			t.Fatal(err)
		}
		d, tn = open()
		if got := tn.received.Load(); got != int64(cut) {
			t.Fatalf("cut %d: resumed at record %d", cut, got)
		}
		ingestAll(t, tn, recs[cut:])
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		logData, err := os.ReadFile(filepath.Join(cfg.EventLogDir, "ref.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(logData, ref.eventLog) {
			t.Errorf("cut %d: event log differs from the uninterrupted run:\n%s\n--- want ---\n%s", cut, logData, ref.eventLog)
		}
		s, err := modelstore.OpenTenant(cfg.StoreRoot, "ref", modelstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := s.Load(cfg.Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range oracleFiles {
			if !bytes.Equal(snap.Files[name], ref.files[name]) {
				t.Errorf("cut %d: final %s differs from the uninterrupted run (%d vs %d bytes)",
					cut, name, len(snap.Files[name]), len(ref.files[name]))
			}
		}
	}
}

// TestTenantStoreNamespacing pins the on-disk layout: each tenant's
// generations live under StoreRoot/tenants/<id>/ with the standard
// store protocol and the fleet fingerprint, and hold exactly what the
// home mutates — monitor.snap and tenant.snap, never the shared model.
func TestTenantStoreNamespacing(t *testing.T) {
	fx := getFixture(t)
	dir := t.TempDir()
	cfg := baseConfig(t, fx, 1, dir)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"home-a", "home-b"} {
		tn, err := d.Add(id, "tok")
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, tn, fx.classes[1][:200])
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"home-a", "home-b"} {
		s, err := modelstore.Open(filepath.Join(cfg.StoreRoot, "tenants", id), modelstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := s.Load("fleet-test/v1")
		if err != nil {
			t.Fatalf("tenant %s final checkpoint: %v", id, err)
		}
		if len(snap.Files) != len(oracleFiles) {
			t.Errorf("tenant %s checkpoint holds %d files, want exactly %v", id, len(snap.Files), oracleFiles)
		}
		for _, name := range oracleFiles {
			if len(snap.Files[name]) == 0 {
				t.Errorf("tenant %s checkpoint missing %s", id, name)
			}
		}
	}
}
