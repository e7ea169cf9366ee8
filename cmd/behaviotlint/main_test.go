package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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
// the -json summary counts every analyzer.
func TestSelfRunCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, root)

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
}

// scratchModule writes a one-file module into a temp directory and
// makes that the working directory.
func scratchModule(t *testing.T, name, body string) {
	t.Helper()
	dir := t.TempDir()
	for file, data := range map[string]string{"go.mod": "module scratch\n\ngo 1.22\n", name: body} {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)
}

// TestBareIgnoreFailsTheRun pins the malformed-directive contract: a
// tree whose only blemish is a reasonless //lint:ignore exits 1, the
// directive is counted under the "lint" pseudo-analyzer, and it
// suppresses nothing.
func TestBareIgnoreFailsTheRun(t *testing.T) {
	scratchModule(t, "bad.go", `package bad

func mayFail() error { return nil }

// Use calls mayFail with a bare, reasonless ignore: the directive is
// malformed, so it is itself reported and suppresses nothing.
func Use() {
	//lint:ignore errcheck
	mayFail()
}
`)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
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

// TestTypeErrorFailsTheLoad pins that a package which does not
// type-check is a load failure (exit 2, position on stderr), never a
// clean run: four of the five analyzers skip nodes without type
// information and would report nothing.
func TestTypeErrorFailsTheLoad(t *testing.T) {
	scratchModule(t, "broken.go", `package broken

func mayFail() error { return nil }

func Use() {
	mayFail()
	undefinedName()
}
`)

	var stdout, stderr bytes.Buffer
	code := run([]string{"./..."}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if want := "broken.go:7:2: undefined: undefinedName"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr = %q, want it to contain %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing: a failed load reports no findings", stdout.String())
	}
}
