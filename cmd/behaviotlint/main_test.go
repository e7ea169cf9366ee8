package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"behaviot/internal/lint"
)

// chdir switches the working directory for one test and restores it.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSelfRunCleanTree pins the audited state of this repository:
// `behaviotlint ./...` from the module root reports zero findings, and
// the -json summary carries the timing fields CI consumes.
func TestSelfRunCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, root)
	t.Setenv("BEHAVIOTLINT_CACHE_DIR", t.TempDir())

	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("behaviotlint ./... exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, stdout.String())
	}
	if len(rep.Findings) != 0 || rep.Summary.Findings != 0 {
		t.Errorf("tree is not finding-free: %+v", rep.Findings)
	}
	if rep.Summary.Packages == 0 {
		t.Error("summary reports zero packages")
	}
	for _, a := range lint.All {
		if _, ok := rep.Summary.ByAnalyzer[a.Name]; !ok {
			t.Errorf("by_analyzer missing %q", a.Name)
		}
	}
	switch rep.Summary.TypecheckMode {
	case "cache", "cache-cold", "source":
	default:
		t.Errorf("unexpected typecheck_mode %q", rep.Summary.TypecheckMode)
	}
	if rep.Summary.LoadMS < rep.Summary.TypecheckMS {
		t.Errorf("load_ms %d < typecheck_ms %d; typecheck time must be a subset of load time",
			rep.Summary.LoadMS, rep.Summary.TypecheckMS)
	}
	if _, ok := rep.Summary.AnalyzersMS["lockguard"]; !ok {
		t.Error("analyzers_ms missing lockguard")
	}
}

// TestBareIgnoreFailsTheRun pins the malformed-directive contract: a
// tree whose only blemish is a reasonless //lint:ignore exits 1, the
// directive is counted under the "lint" pseudo-analyzer, and it
// suppresses nothing.
func TestBareIgnoreFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("go.mod", "module scratch\n\ngo 1.22\n")
	writeFile("bad.go", `package bad

func mayFail() error { return nil }

// Use calls mayFail with a bare, reasonless ignore: the directive is
// malformed, so it is itself reported and suppresses nothing.
func Use() {
	//lint:ignore errcheck
	mayFail()
}
`)
	chdir(t, dir)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-typecache=off", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, stdout.String())
	}
	if got := rep.Summary.ByAnalyzer["lint"]; got != 1 {
		t.Errorf("by_analyzer[lint] = %d, want 1 (the bare ignore)", got)
	}
	if got := rep.Summary.ByAnalyzer["errcheck"]; got != 1 {
		t.Errorf("by_analyzer[errcheck] = %d, want 1 (malformed ignore must not suppress)", got)
	}
	if rep.Summary.Findings != 2 {
		t.Errorf("findings = %d, want 2", rep.Summary.Findings)
	}
}

// TestTypecacheFlagValidation rejects values other than on/off.
func TestTypecacheFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-typecache=sometimes", "./..."}, &stdout, &stderr); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}
