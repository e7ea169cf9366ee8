package modelstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"behaviot/internal/chaos"
)

func testFiles(tag string) map[string][]byte {
	return map[string][]byte{
		FilePipeline: []byte("pipeline-" + tag),
		FileMonitor:  []byte("monitor-" + tag),
		FileTenant:   {},
	}
}

func mustWrite(t *testing.T, s *Store, fp string, files map[string][]byte) int {
	t.Helper()
	gen, err := s.Write(fp, files)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	return gen
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestWriteLoadRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	files := testFiles("a")
	gen := mustWrite(t, s, "fp1", files)
	if gen != 1 {
		t.Fatalf("first generation = %d, want 1", gen)
	}
	snap, err := s.Load("fp1")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if snap.Generation != 1 || snap.Fingerprint != "fp1" {
		t.Fatalf("snapshot = gen %d fp %q", snap.Generation, snap.Fingerprint)
	}
	if len(snap.Files) != len(files) {
		t.Fatalf("loaded %d files, want %d", len(snap.Files), len(files))
	}
	for name, want := range files {
		if got := string(snap.Files[name]); got != string(want) {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}

	// Older stores stamped manifests with created_unix; they still load.
	old := t.TempDir()
	genDir := filepath.Join(old, "gen-000001")
	data := []byte("pipeline-old")
	if err := os.MkdirAll(genDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(genDir, FilePipeline), data, 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := fmt.Sprintf(`{
  "format_version": 1,
  "fingerprint": "fp1",
  "files": [{"name": %q, "size": %d, "crc32c": %d}],
  "created_unix": 1633046400
}
`, FilePipeline, len(data), crc32.Checksum(data, castagnoli))
	if err := os.WriteFile(filepath.Join(genDir, manifestName), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err = mustOpen(t, old).Load("fp1")
	if err != nil {
		t.Fatalf("Load of a manifest with created_unix: %v", err)
	}
	if got := string(snap.Files[FilePipeline]); snap.Generation != 1 || got != string(data) {
		t.Fatalf("legacy generation loaded as gen %d with %q", snap.Generation, got)
	}
}

func TestLoadNewestMatchingFingerprint(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	mustWrite(t, s, "old-config", testFiles("a"))
	mustWrite(t, s, "new-config", testFiles("b"))

	snap, err := s.Load("old-config")
	if err != nil {
		t.Fatalf("Load(old-config): %v", err)
	}
	if snap.Generation != 1 {
		t.Fatalf("old-config resolved to gen %d, want 1", snap.Generation)
	}
	snap, err = s.Load("")
	if err != nil {
		t.Fatalf("Load(any): %v", err)
	}
	if snap.Generation != 2 {
		t.Fatalf("any-fingerprint resolved to gen %d, want 2", snap.Generation)
	}
	if _, err := s.Load("never-trained"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Load(never-trained) = %v, want ErrNoSnapshot", err)
	}
}

func TestEmptyStore(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if _, err := s.Load(""); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Load on empty store = %v, want ErrNoSnapshot", err)
	}
}

// copyTree deep-copies a directory: the filesystem state a crash would
// leave behind at the moment of the copy.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyTree(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillMidWrite simulates a crash at every step of the write
// protocol: before each staged file (and before the manifest) the store
// state is photographed; each photo must still load the previous intact
// generation, and a fresh Write on the photo must succeed and sweep the
// torn temp directory.
func TestKillMidWrite(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	mustWrite(t, s, "fp", testFiles("good"))

	var photos []string
	step := 0
	s.beforeFile = func(name string) {
		photo := filepath.Join(t.TempDir(), "photo")
		copyTree(t, dir, photo)
		photos = append(photos, photo)
		step++
	}
	mustWrite(t, s, "fp", testFiles("second"))
	if step != len(testFiles(""))+1 { // every file + the manifest
		t.Fatalf("hook ran %d times, want %d", step, len(testFiles(""))+1)
	}

	for i, photo := range photos {
		crashed := mustOpen(t, photo)
		snap, err := crashed.Load("fp")
		if err != nil {
			t.Fatalf("photo %d: Load: %v", i, err)
		}
		if snap.Generation != 1 {
			t.Errorf("photo %d: resumed from gen %d, want intact gen 1", i, snap.Generation)
		}
		if got := string(snap.Files[FilePipeline]); got != "pipeline-good" {
			t.Errorf("photo %d: pipeline = %q, want pre-crash bytes", i, got)
		}

		// Recovery write must land gen 2 and sweep the torn temp dir.
		gen := mustWrite(t, crashed, "fp", testFiles("recovered"))
		if gen != 2 {
			t.Errorf("photo %d: recovery wrote gen %d, want 2", i, gen)
		}
		entries, err := os.ReadDir(photo)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name()[0] == '.' {
				t.Errorf("photo %d: stale temp dir %s survived recovery", i, e.Name())
			}
		}
	}
}

// TestCorruptSnapshotFallsBack covers every corruption class: bit flips,
// truncation, file loss, manifest damage. Each must be detected and the
// previous generation served instead.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	corruptions := map[string]func(t *testing.T, genDir string){
		"bit-flip": func(t *testing.T, genDir string) {
			p := filepath.Join(genDir, FilePipeline)
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			bad := chaos.CorruptFile(raw, 0, 0.2, 42)
			if string(bad) == string(raw) {
				t.Fatal("corruption no-op")
			}
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncate": func(t *testing.T, genDir string) {
			if err := os.Truncate(filepath.Join(genDir, FilePipeline), 3); err != nil {
				t.Fatal(err)
			}
		},
		"missing-file": func(t *testing.T, genDir string) {
			if err := os.Remove(filepath.Join(genDir, FileMonitor)); err != nil {
				t.Fatal(err)
			}
		},
		"torn-manifest": func(t *testing.T, genDir string) {
			if err := os.Truncate(filepath.Join(genDir, "manifest.json"), 10); err != nil {
				t.Fatal(err)
			}
		},
		"missing-manifest": func(t *testing.T, genDir string) {
			if err := os.Remove(filepath.Join(genDir, "manifest.json")); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			mustWrite(t, s, "fp", testFiles("intact"))
			gen2 := mustWrite(t, s, "fp", testFiles("doomed"))
			corrupt(t, s.genPath(gen2))

			snap, err := s.Load("fp")
			if err != nil {
				t.Fatalf("Load after %s: %v", name, err)
			}
			if snap.Generation != 1 {
				t.Fatalf("served gen %d after %s, want fallback to 1", snap.Generation, name)
			}
			if got := string(snap.Files[FilePipeline]); got != "pipeline-intact" {
				t.Fatalf("pipeline = %q, want intact bytes", got)
			}
		})
	}
}

func TestAllGenerationsCorruptIsError(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	gen := mustWrite(t, s, "fp", testFiles("only"))
	raw, err := os.ReadFile(filepath.Join(s.genPath(gen), FilePipeline))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.genPath(gen), FilePipeline),
		chaos.CorruptFile(raw, 0, 0.5, 7), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("fp"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Load with sole generation corrupt = %v, want ErrNoSnapshot", err)
	}
}

func TestRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Retain: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustWrite(t, s, "fp", testFiles("r"))
	}
	gens, err := s.generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 || gens[0] != 3 || gens[2] != 5 {
		t.Fatalf("retained generations %v, want [3 4 5]", gens)
	}
	snap, err := s.Load("fp")
	if err != nil || snap.Generation != 5 {
		t.Fatalf("Load = gen %d, %v; want 5", snap.Generation, err)
	}
}

func TestGenerationNumberingSurvivesPruning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustWrite(t, s, "fp", testFiles("n"))
	}
	// Re-open (a daemon restart) and keep counting from the survivor.
	s2 := mustOpen(t, dir)
	gen := mustWrite(t, s2, "fp", testFiles("n"))
	if gen != 4 {
		t.Fatalf("post-restart generation = %d, want 4", gen)
	}
}

func TestInvalidFileNamesRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for _, name := range []string{"manifest.json", "../escape", "a/b", ".hidden"} {
		if _, err := s.Write("fp", map[string][]byte{name: []byte("x")}); err == nil {
			t.Errorf("Write accepted file name %q", name)
		}
	}
}

func TestDeterministicGenerationBytes(t *testing.T) {
	read := func(dir string) map[string]string {
		s := mustOpen(t, dir)
		mustWrite(t, s, "fp", testFiles("det"))
		out := map[string]string{}
		entries, err := os.ReadDir(s.genPath(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(s.genPath(1), e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(data)
		}
		return out
	}
	a, b := read(t.TempDir()), read(t.TempDir())
	if len(a) != len(b) {
		t.Fatalf("different file sets: %d vs %d", len(a), len(b))
	}
	for name, data := range a {
		if b[name] != data {
			t.Errorf("%s differs between identical writes", name)
		}
	}
}
