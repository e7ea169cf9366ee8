package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// loadFixture loads testdata/<name> as a package through the real
// loader, so fixtures are parsed and type-checked exactly like
// production code.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatalf("no Go files in testdata/%s", name)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`//\s*want\s+([a-z]+)\b`)

// wantMarkers extracts "// want <analyzer>" markers from every fixture
// file as "file:line:analyzer" keys.
func wantMarkers(t *testing.T, pkg *Package) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	ents, err := os.ReadDir(pkg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(pkg.Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), line, m[1])] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// checkFixture runs one analyzer over a fixture (through Check, so
// lint:ignore suppression applies) and compares findings against the
// want markers.
func checkFixture(t *testing.T, fixture string, a *Analyzer) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	want := wantMarkers(t, pkg)
	got := map[string]bool{}
	var lines []string
	for _, f := range Check(pkg, []*Analyzer{a}) {
		key := fmt.Sprintf("%s:%d:%s", filepath.Base(f.File), f.Line, f.Analyzer)
		got[key] = true
		lines = append(lines, f.String())
	}
	for key := range want {
		if !got[key] {
			t.Errorf("missing finding %s\nall findings:\n%s", key, strings.Join(lines, "\n"))
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("unexpected finding %s\nall findings:\n%s", key, strings.Join(lines, "\n"))
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	// The fixture package path ends in testdata/determinism; register
	// it as a generator package for the duration of the test.
	defer func(old []string) { GeneratorPackages = old }(GeneratorPackages)
	GeneratorPackages = append(GeneratorPackages, "testdata/determinism")
	checkFixture(t, "determinism", Determinism)
}

func TestDeterminismSkipsNonGeneratorPackages(t *testing.T) {
	// Same fixture, default configuration: its package path is not a
	// generator package, so nothing is reported.
	pkg := loadFixture(t, "determinism")
	if fs := Determinism.Run(pkg); len(fs) != 0 {
		t.Errorf("determinism ran outside generator packages: %v", fs)
	}
}

func TestFloatEqFixture(t *testing.T)   { checkFixture(t, "floateq", FloatEq) }
func TestErrCheckFixture(t *testing.T)  { checkFixture(t, "errcheck", ErrCheck) }
func TestLockGuardFixture(t *testing.T) { checkFixture(t, "lockguard", LockGuard) }

func TestMapRangeFixture(t *testing.T) {
	// Like the determinism fixture: register the fixture's package path
	// as a model package for the duration of the test.
	defer func(old []string) { ModelPackages = old }(ModelPackages)
	ModelPackages = append(ModelPackages, "testdata/maprange")
	checkFixture(t, "maprange", MapRange)
}

func TestMapRangeSkipsNonModelPackages(t *testing.T) {
	pkg := loadFixture(t, "maprange")
	if fs := MapRange.Run(pkg); len(fs) != 0 {
		t.Errorf("maprange ran outside model packages: %v", fs)
	}
}

func TestModelPackageMatching(t *testing.T) {
	for path, want := range map[string]bool{
		"behaviot/internal/core":         true,
		"behaviot/internal/pfsm":         true,
		"behaviot/internal/randomforest": true,
		"internal/dbscan":                true,
		"behaviot/internal/datasets":     false,
		"behaviot/cmd/behaviotd":         false,
	} {
		if got := isModelPackage(path); got != want {
			t.Errorf("isModelPackage(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestIgnoreSemantics(t *testing.T) {
	pkg := loadFixture(t, "ignore")
	var got []string
	for _, f := range Check(pkg, []*Analyzer{ErrCheck}) {
		got = append(got, fmt.Sprintf("%d:%s", f.Line, f.Analyzer))
	}
	sort.Strings(got)
	want := []string{
		"14:errcheck", // wrong-analyzer directive does not suppress
		"21:lint",     // bare directive without a reason is malformed
		"22:errcheck", // malformed directive suppresses nothing
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("findings = %v, want %v", got, want)
	}
}

func TestGeneratorPackageMatching(t *testing.T) {
	for path, want := range map[string]bool{
		"behaviot/internal/datasets": true,
		"behaviot/internal/testbed":  true,
		"internal/datasets":          true,
		"behaviot/internal/stats":    false,
		"behaviot/cmd/behaviotd":     false,
	} {
		if got := isGeneratorPackage(path); got != want {
			t.Errorf("isGeneratorPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
