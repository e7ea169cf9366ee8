package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestQuickPeriodicityMatchesExpectations runs the one group that needs
// no lab (§5.1, seconds) through the real flag parsing and checks its
// stdout is exactly the block the checked-in quick-scale expectations
// open with — the same file CI diffs the full -run all output against.
func TestQuickPeriodicityMatchesExpectations(t *testing.T) {
	expected, err := os.ReadFile("../../internal/experiments/testdata/quick_expected.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-run", "periodicity"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d\nstderr:\n%s", code, stderr.String())
	}
	got := stdout.String()
	if !strings.HasPrefix(got, "==== §5.1 periodicity ====\n") || !strings.HasPrefix(string(expected), got) {
		t.Errorf("stdout is not the opening block of quick_expected.txt:\n%s", got)
	}
}
