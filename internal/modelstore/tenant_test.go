package modelstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidTenantID(t *testing.T) {
	valid := []string{
		"a", "home-001", "A.B_c-9", "0", "x" + strings.Repeat("y", 63),
		"dotted.name", "UPPER", "under_score",
	}
	for _, id := range valid {
		if !ValidTenantID(id) {
			t.Errorf("ValidTenantID(%q) = false, want true", id)
		}
	}
	invalid := []string{
		"",                        // empty
		strings.Repeat("a", 65),   // too long
		".hidden",                 // leading dot: store staging namespace
		"..",                      // path traversal
		"a/b",                     // path separator
		`a\b`,                     // windows path separator
		"home 1",                  // space
		"home#1",                  // punctuation outside the set
		"h\x00me",                 // NUL
		"héme",                    // non-ASCII
		"tenant\n",                // control character
		string([]byte{'a', 0xff}), // invalid byte
	}
	for _, id := range invalid {
		if ValidTenantID(id) {
			t.Errorf("ValidTenantID(%q) = true, want false", id)
		}
	}
}

func TestOpenTenantRejectsInvalidID(t *testing.T) {
	root := t.TempDir()
	for _, id := range []string{"", ".dot", "a/b", "../escape", strings.Repeat("z", 65)} {
		if _, err := OpenTenant(root, id, Options{}); err == nil {
			t.Errorf("OpenTenant accepted id %q", id)
		}
	}
	// Rejection must not create anything under the root.
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 0 {
		t.Fatalf("rejected OpenTenant left %d entries under root (%v)", len(entries), err)
	}
}

func TestOpenTenantNamespacesUnderRoot(t *testing.T) {
	root := t.TempDir()
	s, err := OpenTenant(root, "home-042", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(root, "tenants", "home-042")
	if s.dir != want {
		t.Fatalf("tenant store dir = %q, want %q", s.dir, want)
	}
}

// dirSnapshot flattens a directory tree into path -> content for exact
// before/after comparison.
func dirSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTenantPruneIsolation: pruning one tenant's generations never
// touches a sibling tenant's directory, byte for byte.
func TestTenantPruneIsolation(t *testing.T) {
	root := t.TempDir()
	alice, err := OpenTenant(root, "alice", Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := OpenTenant(root, "bob", Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, bob, "fp", testFiles("bob"))
	before := dirSnapshot(t, bob.dir)

	// Alice churns through enough generations to trigger pruning on
	// every write; Bob's bytes must not move.
	for i := 0; i < 5; i++ {
		mustWrite(t, alice, "fp", testFiles("alice"))
	}
	if gens, _ := alice.generations(); len(gens) != 1 || gens[0] != 5 {
		t.Fatalf("alice generations = %v, want [5]", gens)
	}

	after := dirSnapshot(t, bob.dir)
	if len(before) != len(after) {
		t.Fatalf("bob's file set changed: %d -> %d files", len(before), len(after))
	}
	for rel, data := range before {
		if after[rel] != data {
			t.Errorf("bob's %s changed while alice pruned", rel)
		}
	}
	if snap, err := bob.Load("fp"); err != nil || snap.Generation != 1 {
		t.Fatalf("bob's store damaged by alice's retention: %v", err)
	}
}
