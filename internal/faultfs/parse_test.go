package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestFailMatchCountsOnlyMatchingOps pins the difference from FailOp:
// Nth indexes the operations whose path matches, so interleaved
// unrelated writes cannot shift the fault off its target.
func TestFailMatchCountsOnlyMatchingOps(t *testing.T) {
	dir := t.TempDir()
	in := New(OS{}, &FailMatch{
		Kind: OpWrite, Nth: 2, Tear: 1, PathContains: ".delta",
	})
	// Two unrelated writes burn global write seq 1-2; a FailOp with
	// Nth=2 would have fired on the second of these.
	for i := 0; i < 2; i++ {
		if _, err := writeThrough(t, in, filepath.Join(dir, "full.snap"), []byte("full")); err != nil {
			t.Fatalf("unrelated write %d faulted: %v", i, err)
		}
	}
	// First matching write passes, second faults (torn to 1 byte).
	if _, err := writeThrough(t, in, filepath.Join(dir, "a.delta"), []byte("d1")); err != nil {
		t.Fatalf("first matching write faulted: %v", err)
	}
	n, err := writeThrough(t, in, filepath.Join(dir, "b.delta"), []byte("d2-payload"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("second matching write = %v, want injected fault", err)
	}
	if n != 1 {
		t.Fatalf("torn matching write persisted %d bytes, want 1", n)
	}
	// The window is one wide: the third matching write passes again.
	if _, err := writeThrough(t, in, filepath.Join(dir, "c.delta"), []byte("d3")); err != nil {
		t.Fatalf("third matching write faulted: %v", err)
	}
}

func TestParseConfigRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want Config
	}{
		{"", Config{}},
		{"failwrite=3", Config{FailWriteNth: 3}},
		{"failwrite=1,count=4,tear=5,path=.delta,match=1", Config{
			FailWriteNth: 1, FailCount: 4, TearBytes: 5,
			PathContains: ".delta", CountMatches: true,
		}},
		{"failsync=2,failrename=7", Config{FailSyncNth: 2, FailRenameNth: 7}},
		{"enospc=4096,path=tenants/home-042", Config{
			ENOSPCAfter: 4096, PathContains: "tenants/home-042",
		}},
		{" failwrite = 2 , match = true ", Config{FailWriteNth: 2, CountMatches: true}},
	}
	for _, tc := range cases {
		got, err := ParseConfig(tc.spec)
		if err != nil {
			t.Errorf("ParseConfig(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseConfig(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		// String must re-parse to the same Config (the log-line
		// contract); the zero Config renders as "none".
		rendered := got.String()
		if rendered == "none" {
			if got != (Config{}) {
				t.Errorf("non-zero config rendered as none: %+v", got)
			}
			continue
		}
		back, err := ParseConfig(rendered)
		if err != nil || back != got {
			t.Errorf("String round trip %q -> %q -> %+v (%v)", tc.spec, rendered, back, err)
		}
	}
}

func TestParseConfigRejects(t *testing.T) {
	for _, spec := range []string{
		"bogus=1", "failwrite=0", "failwrite=-2", "failwrite=x",
		"tear=0", "count=0", "enospc=0", "path=", "match=perhaps",
		"failwrite", "=3",
		"count=2", "tear=5", "path=.delta", "match=1", "failsync=1,tear=5",
	} {
		if cfg, err := ParseConfig(spec); err == nil {
			t.Errorf("ParseConfig(%q) accepted: %+v", spec, cfg)
		}
	}
}

// TestParsedMatchConfigDrivesInjector wires a parsed spec end to end:
// the spec the soak passes via -store-fault must tear exactly the
// first matching write.
func TestParsedMatchConfigDrivesInjector(t *testing.T) {
	cfg, err := ParseConfig("failwrite=1,tear=2,path=.delta,match=1")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := Wrap(OS{}, cfg)
	if _, err := writeThrough(t, in, filepath.Join(dir, "x.snap"), []byte("unrelated")); err != nil {
		t.Fatalf("unrelated write faulted: %v", err)
	}
	n, err := writeThrough(t, in, filepath.Join(dir, "x.delta"), []byte("payload"))
	if !errors.Is(err, ErrInjected) || n != 2 {
		t.Fatalf("first matching write: n=%d err=%v, want torn injected fault", n, err)
	}
	if _, err := writeThrough(t, in, filepath.Join(dir, "y.delta"), []byte("payload")); err != nil {
		t.Fatalf("second matching write faulted: %v", err)
	}
	_ = os.Remove(filepath.Join(dir, "x.delta"))
}
