package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"behaviot/internal/modelstore"
)

// writeVerifyChain writes n generations of evolving payloads through a
// FullEvery=3 store at dir, so the report has fulls and deltas.
func writeVerifyChain(t *testing.T, s *modelstore.Store, n int) {
	t.Helper()
	payload := bytes.Repeat([]byte("behaviot verify fixture "), 512)
	for i := 0; i < n; i++ {
		mut := append([]byte(nil), payload...)
		copy(mut[i*64:], []byte(fmt.Sprintf("generation %02d", i)))
		if _, err := s.Write("verify-test/v1", map[string][]byte{
			modelstore.FilePipeline: mut,
			modelstore.FileMonitor:  mut[:1024],
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptNewestGen truncates a payload file in the store's newest
// generation directory, breaking its chain at the head.
func corruptNewestGen(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var gens []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "gen-") {
			gens = append(gens, e.Name())
		}
	}
	if len(gens) == 0 {
		t.Fatalf("no generations under %s", dir)
	}
	sort.Strings(gens)
	genDir := filepath.Join(dir, gens[len(gens)-1])
	files, err := os.ReadDir(genDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.Name() == "manifest.json" {
			continue
		}
		if err := os.Truncate(filepath.Join(genDir, f.Name()), 1); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no payload file to corrupt in %s", genDir)
}

// TestVerifyStoreSingle exercises -verify-store against a single-daemon
// store: exit 0 with a per-generation chain report while the newest
// chain is intact, exit 1 once the newest generation is corrupted.
func TestVerifyStoreSingle(t *testing.T) {
	dir := t.TempDir()
	s, err := modelstore.Open(dir, modelstore.Options{FullEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	writeVerifyChain(t, s, 5)

	var buf bytes.Buffer
	if code := runVerifyStore(dir, &buf); code != 0 {
		t.Fatalf("runVerifyStore = %d on an intact store:\n%s", code, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "newest chain intact") {
		t.Errorf("report missing the intact verdict:\n%s", out)
	}
	if !strings.Contains(out, "delta") || !strings.Contains(out, "parent=") {
		t.Errorf("report does not describe the delta chain:\n%s", out)
	}
	if !strings.Contains(out, "all 1 stores recoverable") {
		t.Errorf("report missing the summary line:\n%s", out)
	}

	corruptNewestGen(t, dir)
	buf.Reset()
	if code := runVerifyStore(dir, &buf); code != 1 {
		t.Fatalf("runVerifyStore = %d on a store with a broken newest chain, want 1:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "NEWEST CHAIN BROKEN") {
		t.Errorf("report missing the broken verdict:\n%s", buf.String())
	}
}

// TestVerifyStoreFleet exercises the fleet-root layout: every
// tenants/<id>/ store is verified, and one broken tenant fails the
// whole check while the report still covers the healthy one.
func TestVerifyStoreFleet(t *testing.T) {
	root := t.TempDir()
	for _, id := range []string{"home-a", "home-b"} {
		s, err := modelstore.OpenTenant(root, id, modelstore.Options{FullEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		writeVerifyChain(t, s, 4)
	}

	var buf bytes.Buffer
	if code := runVerifyStore(root, &buf); code != 0 {
		t.Fatalf("runVerifyStore = %d on an intact fleet root:\n%s", code, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"tenant home-a", "tenant home-b", "all 2 stores recoverable"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet report missing %q:\n%s", want, out)
		}
	}

	corruptNewestGen(t, filepath.Join(root, "tenants", "home-b"))
	buf.Reset()
	if code := runVerifyStore(root, &buf); code != 1 {
		t.Fatalf("runVerifyStore = %d with one broken tenant, want 1:\n%s", code, buf.String())
	}
	out = buf.String()
	if !strings.Contains(out, "1 of 2 stores unrecoverable") {
		t.Errorf("fleet report missing the failure summary:\n%s", out)
	}
	if !strings.Contains(out, "tenant home-a") || !strings.Contains(out, "newest chain intact") {
		t.Errorf("fleet report lost the healthy tenant:\n%s", out)
	}
}

// TestVerifyStoreModel covers the daemon root's model/ store: it is
// audited as target "model" beside the tenants, an intact generation
// passes, and a torn one fails the check.
func TestVerifyStoreModel(t *testing.T) {
	root := t.TempDir()
	tenant, err := modelstore.OpenTenant(root, "home", modelstore.Options{FullEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	writeVerifyChain(t, tenant, 2)
	model, err := modelstore.Open(filepath.Join(root, modelDir), modelstore.Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Write("verify-test/v1", map[string][]byte{
		modelstore.FilePipeline: bytes.Repeat([]byte("trained model "), 256),
	}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if code := runVerifyStore(root, &buf); code != 0 {
		t.Fatalf("runVerifyStore = %d with an intact model generation:\n%s", code, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"tenant home", "model " + filepath.Join(root, modelDir) + ": 1 generations, newest chain intact", "all 2 stores recoverable"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	corruptNewestGen(t, filepath.Join(root, modelDir))
	buf.Reset()
	if code := runVerifyStore(root, &buf); code != 1 {
		t.Fatalf("runVerifyStore = %d with a torn model generation, want 1:\n%s", code, buf.String())
	}
	out = buf.String()
	for _, want := range []string{"model " + filepath.Join(root, modelDir) + ": 1 generations, NEWEST CHAIN BROKEN", "1 of 2 stores unrecoverable"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestVerifyStoreMissingAndEmpty pins the edge cases: a missing root is
// an error; an empty store is recoverable (nothing to lose); a fleet
// root whose tenants/ namespace holds no valid tenant stores is an
// error (the operator pointed -store somewhere wrong).
func TestVerifyStoreMissingAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	if code := runVerifyStore(filepath.Join(t.TempDir(), "nope"), &buf); code != 1 {
		t.Errorf("runVerifyStore = %d on a missing root, want 1", code)
	}

	empty := t.TempDir()
	buf.Reset()
	if code := runVerifyStore(empty, &buf); code != 0 {
		t.Errorf("runVerifyStore = %d on an empty store, want 0:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "empty (no generations)") {
		t.Errorf("empty-store report missing the empty verdict:\n%s", buf.String())
	}

	orphan := t.TempDir()
	if err := os.MkdirAll(filepath.Join(orphan, "tenants"), 0o755); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if code := runVerifyStore(orphan, &buf); code != 1 {
		t.Errorf("runVerifyStore = %d on a tenant namespace with no stores, want 1:\n%s", code, buf.String())
	}
}
