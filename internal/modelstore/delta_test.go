package modelstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"behaviot/internal/faultfs"
)

// mustOpenDelta opens a store with differential checkpointing enabled.
func mustOpenDelta(t *testing.T, dir string, fullEvery, retain int) *Store {
	t.Helper()
	s, err := Open(dir, Options{FullEvery: fullEvery, Retain: retain})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// genKinds returns generation -> kind for every generation in the store.
func genKinds(t *testing.T, s *Store) map[int]string {
	t.Helper()
	infos, err := s.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	kinds := make(map[int]string, len(infos))
	for _, info := range infos {
		kinds[info.Generation] = info.Kind
	}
	return kinds
}

// intactGens lists the generations Report finds intact, ascending.
func intactGens(t *testing.T, s *Store) []int {
	t.Helper()
	infos, err := s.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	var gens []int
	for _, info := range infos {
		if info.Intact {
			gens = append(gens, info.Generation)
		}
	}
	return gens
}

// TestDeltaGenerationCadence pins the full-every-N schedule: with
// FullEvery=3 the store writes full, delta, delta, full, … and every
// generation still materializes to exactly what was written.
func TestDeltaGenerationCadence(t *testing.T) {
	s := mustOpenDelta(t, t.TempDir(), 3, 10)
	base := bytes.Repeat([]byte("behaviot-state-"), 300)
	var last map[string][]byte
	for i := 0; i < 7; i++ {
		cur := append(append([]byte(nil), base...), byte('0'+i))
		last = map[string][]byte{
			FilePipeline: cur,
			FileMonitor:  []byte{byte(i)},
		}
		if _, err := s.Write("fp", last); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	want := map[int]string{
		1: KindFull, 2: KindDelta, 3: KindDelta,
		4: KindFull, 5: KindDelta, 6: KindDelta,
		7: KindFull,
	}
	kinds := genKinds(t, s)
	for gen, kind := range want {
		if kinds[gen] != kind {
			t.Errorf("gen %d kind = %q, want %q", gen, kinds[gen], kind)
		}
	}
	snap, err := s.Load("fp")
	if err != nil || snap.Generation != 7 {
		t.Fatalf("Load = gen %d, %v; want 7", snap.Generation, err)
	}
	for name, wantData := range last {
		if !bytes.Equal(snap.Files[name], wantData) {
			t.Errorf("%s materialized wrong bytes", name)
		}
	}
	// Every intermediate generation must materialize too.
	if intact := intactGens(t, s); len(intact) != 7 {
		t.Fatalf("intact = %v, want all 7 generations", intact)
	}
}

// TestTornDeltaInvalidatesOnlySuffix is the chain-fallback contract: a
// corrupt delta breaks itself and everything chained after it, but Load
// serves the longest verified prefix.
func TestTornDeltaInvalidatesOnlySuffix(t *testing.T) {
	s := mustOpenDelta(t, t.TempDir(), 10, 10)
	for i := 0; i < 4; i++ {
		files := map[string][]byte{FilePipeline: bytes.Repeat([]byte{byte('a' + i)}, 2048)}
		if _, err := s.Write("fp", files); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// gens: 1 full, 2-4 deltas. Tear gen 3's delta payload.
	p := filepath.Join(s.genPath(3), FilePipeline+deltaSuffix)
	if err := os.Truncate(p, 4); err != nil {
		t.Fatal(err)
	}

	snap, err := s.Load("fp")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if snap.Generation != 2 {
		t.Fatalf("Load fell back to gen %d, want 2 (longest verified prefix)", snap.Generation)
	}
	if !bytes.Equal(snap.Files[FilePipeline], bytes.Repeat([]byte{'b'}, 2048)) {
		t.Fatal("fallback generation materialized wrong bytes")
	}
	if intact := intactGens(t, s); len(intact) != 2 || intact[0] != 1 || intact[1] != 2 {
		t.Fatalf("intact = %v; want [1 2]", intact)
	}
	// The report must blame gen 3 and everything chained through it.
	infos, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		wantIntact := info.Generation <= 2
		if info.Intact != wantIntact {
			t.Errorf("gen %d intact = %v, want %v (err %v)", info.Generation, info.Intact, wantIntact, info.Err)
		}
	}
}

// TestCorruptBaseFullKillsWholeChain: when the base full is damaged, no
// delta above it can be trusted; the chain dies as a unit.
func TestCorruptBaseFullKillsWholeChain(t *testing.T) {
	s := mustOpenDelta(t, t.TempDir(), 10, 10)
	for i := 0; i < 3; i++ {
		if _, err := s.Write("fp", map[string][]byte{FilePipeline: bytes.Repeat([]byte{byte('x' + i)}, 512)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(filepath.Join(s.genPath(1), FilePipeline), 7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("fp"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Load = %v, want ErrNoSnapshot", err)
	}
	if intact := intactGens(t, s); len(intact) != 0 {
		t.Fatalf("intact = %v, want none", intact)
	}
}

// TestDeltaWriteFaultFallsBack drives the injected-fault rules at the
// delta layer: a torn delta-payload write fails the checkpoint with a
// typed error, costs nothing durable, and the retry lands cleanly.
func TestDeltaWriteFaultFallsBack(t *testing.T) {
	in := faultfs.New(faultfs.OS{})
	s, err := Open(t.TempDir(), Options{FullEvery: 5, Retain: 10, FS: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("fp", map[string][]byte{FilePipeline: bytes.Repeat([]byte("base"), 500)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("fp", map[string][]byte{FilePipeline: bytes.Repeat([]byte("base"), 501)}); err != nil {
		t.Fatal(err)
	}

	// Tear every delta-payload write until the rules are cleared.
	in.SetRules(faultfs.FailOp{
		Kind: faultfs.OpWrite, Nth: 1, Count: 1 << 30, Tear: 3,
		PathContains: deltaSuffix,
	})
	_, werr := s.Write("fp", map[string][]byte{FilePipeline: bytes.Repeat([]byte("base"), 502)})
	var we *WriteError
	if !errors.As(werr, &we) || we.Op != "stage" {
		t.Fatalf("faulted delta write error = %v, want *WriteError with Op=stage", werr)
	}
	if !errors.Is(werr, faultfs.ErrInjected) {
		t.Fatalf("error does not unwrap to ErrInjected: %v", werr)
	}
	if snap, err := s.Load("fp"); err != nil || snap.Generation != 2 {
		t.Fatalf("Load after faulted delta = gen %d, %v; want 2", snap.Generation, err)
	}

	in.SetRules()
	gen, err := s.Write("fp", map[string][]byte{FilePipeline: bytes.Repeat([]byte("base"), 503)})
	if err != nil || gen != 3 {
		t.Fatalf("retry write = %d, %v; want gen 3", gen, err)
	}
	if kinds := genKinds(t, s); kinds[3] != KindDelta {
		t.Fatalf("retry generation kind = %q, want delta (chain resumes)", kinds[3])
	}
	if intact := intactGens(t, s); len(intact) != 3 {
		t.Fatalf("intact = %v, want 3 generations", intact)
	}
}

// TestRetentionPerFingerprint pins the ROADMAP-flagged fix: retention
// counts generations per fingerprint, so a configuration change cannot
// evict the previous configuration's rollback window.
func TestRetentionPerFingerprint(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustWrite(t, s, "fpA", testFiles("a"))
	}
	for i := 0; i < 3; i++ {
		mustWrite(t, s, "fpB", testFiles("b"))
	}
	gens, err := s.generations()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 5, 6}
	if len(gens) != len(want) {
		t.Fatalf("generations = %v, want %v", gens, want)
	}
	for i, g := range want {
		if gens[i] != g {
			t.Fatalf("generations = %v, want %v", gens, want)
		}
	}
	if snap, err := s.Load("fpA"); err != nil || snap.Generation != 3 {
		t.Fatalf("Load(fpA) = %v, %v; old fingerprint must keep its window", snap, err)
	}
}

// TestPruneNeverOrphansRetainedDelta: the newest Retain generations can
// all be deltas; the full they chain to must survive pruning even when
// it falls outside the per-fingerprint quota.
func TestPruneNeverOrphansRetainedDelta(t *testing.T) {
	s := mustOpenDelta(t, t.TempDir(), 4, 2)
	for i := 0; i < 4; i++ {
		if _, err := s.Write("fp", map[string][]byte{FilePipeline: bytes.Repeat([]byte{byte('a' + i)}, 1024)}); err != nil {
			t.Fatal(err)
		}
	}
	// gens: 1 full, 2-4 deltas; Retain=2 keeps {3,4}, whose chains need
	// {1,2} as well — nothing is prunable yet.
	gens, err := s.generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 4 {
		t.Fatalf("generations = %v, want all 4 (chain closure pins the full)", gens)
	}
	snap, err := s.Load("fp")
	if err != nil || snap.Generation != 4 {
		t.Fatalf("Load = %v, %v", snap, err)
	}

	// Two more writes: gen 5 is the next full, gen 6 a delta on it.
	// Retention {5,6} no longer needs the old chain; it goes.
	for i := 4; i < 6; i++ {
		if _, err := s.Write("fp", map[string][]byte{FilePipeline: bytes.Repeat([]byte{byte('a' + i)}, 1024)}); err != nil {
			t.Fatal(err)
		}
	}
	gens, err = s.generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 5 || gens[1] != 6 {
		t.Fatalf("generations = %v, want [5 6]", gens)
	}
	if intact := intactGens(t, s); len(intact) != 2 {
		t.Fatalf("intact = %v, want [5 6]", intact)
	}
}

// TestDeltaChainSurvivesReopen: a restarted daemon (fresh Store, empty
// parent cache) must continue the delta chain from disk, not fall back
// to fulls.
func TestDeltaChainSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpenDelta(t, dir, 5, 10)
	content := func(i int) map[string][]byte {
		return map[string][]byte{FilePipeline: append(bytes.Repeat([]byte("chain"), 400), byte(i))}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Write("fp", content(i)); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustOpenDelta(t, dir, 5, 10)
	gen, err := s2.Write("fp", content(2))
	if err != nil || gen != 3 {
		t.Fatalf("post-reopen write = %d, %v", gen, err)
	}
	if kinds := genKinds(t, s2); kinds[3] != KindDelta {
		t.Fatalf("post-reopen generation kind = %q, want delta", kinds[3])
	}
	snap, err := s2.Load("fp")
	if err != nil || !bytes.Equal(snap.Files[FilePipeline], content(2)[FilePipeline]) {
		t.Fatalf("post-reopen chain materialized wrong bytes: %v", err)
	}
}

// TestDeltaFileAddAndRemove: a file first appearing mid-chain encodes
// against an empty parent, and a dropped file stays dropped in the
// materialized view.
func TestDeltaFileAddAndRemove(t *testing.T) {
	s := mustOpenDelta(t, t.TempDir(), 5, 10)
	if _, err := s.Write("fp", map[string][]byte{
		FilePipeline: []byte("pipeline-v1"),
		FileMonitor:  []byte("monitor-v1"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("fp", map[string][]byte{
		FilePipeline: []byte("pipeline-v2"),
		FileTenant:   []byte("tenant-appears"),
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Load("fp")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Files) != 2 {
		t.Fatalf("materialized files = %d, want 2", len(snap.Files))
	}
	if string(snap.Files[FilePipeline]) != "pipeline-v2" || string(snap.Files[FileTenant]) != "tenant-appears" {
		t.Fatalf("materialized content wrong: %q %q", snap.Files[FilePipeline], snap.Files[FileTenant])
	}
	if _, present := snap.Files[FileMonitor]; present {
		t.Fatal("dropped file still present in materialized view")
	}
}

// TestDeltaStoreBytesSavings pins the economics: for small edits to a
// sizable snapshot, delta payload bytes must come in far under what
// full snapshots would have cost.
func TestDeltaStoreBytesSavings(t *testing.T) {
	s := mustOpenDelta(t, t.TempDir(), 10, 20)
	base := bytes.Repeat([]byte("steady-state-model-bytes"), 2000) // ~48 KB
	for i := 0; i < 6; i++ {
		cur := append([]byte(nil), base...)
		copy(cur[i*100:], "drifted")
		cur = append(cur, byte(i))
		if _, err := s.Write("fp", map[string][]byte{FilePipeline: cur}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Fulls != 1 || st.Deltas != 5 {
		t.Fatalf("stats = %+v, want 1 full + 5 deltas", st)
	}
	perDelta := st.DeltaBytes / st.Deltas
	if limit := st.FullBytes / 10; perDelta > limit {
		t.Fatalf("average delta payload %d bytes, want <= %d (10%% of the full)", perDelta, limit)
	}
}

// TestDeltaSuffixNameRejected: logical file names may not collide with
// the on-disk delta naming convention.
func TestDeltaSuffixNameRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if _, err := s.Write("fp", map[string][]byte{"state.delta": []byte("x")}); err == nil {
		t.Error("Write accepted a .delta file name")
	}
}
