package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// renderChecked summarizes packages plus their findings, for comparing
// loader configurations.
func renderChecked(pkgs []*Package) string {
	var sb strings.Builder
	for _, pkg := range pkgs {
		fmt.Fprintf(&sb, "package %s (%s) files=%d\n", pkg.Path, pkg.Name, len(pkg.Files))
		for _, f := range Check(pkg, nil) {
			fmt.Fprintf(&sb, "  %s:%d:%d [%s] %s\n",
				filepath.Base(f.File), f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	return sb.String()
}

// TestCachedLoaderMatchesSource pins the export-data cache's
// correctness contract: a cached load produces the same packages and
// the same findings as a source-importer load, the first run builds
// the index (cache-cold), and the second run reuses it (cache).
func TestCachedLoaderMatchesSource(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the stdlib export index")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(cacheEnvVar, t.TempDir())

	patterns := []string{
		"internal/stats",
		"internal/lint/testdata/errcheck",
		"internal/lint/testdata/lockguard",
	}
	srcLoader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	srcPkgs, err := srcLoader.Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	want := renderChecked(srcPkgs)
	if !strings.Contains(want, "[errcheck]") {
		t.Fatalf("source load produced no errcheck findings; fixture coverage broken:\n%s", want)
	}

	for run, wantMode := range []TypeCheckMode{ModeCacheCold, ModeCache} {
		pkgs, stats, err := LoadWith(root, 1, true, patterns...)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if stats.Mode != wantMode {
			t.Errorf("run %d: mode = %q, want %q", run, stats.Mode, wantMode)
		}
		if stats.StdlibImports.Load() == 0 {
			t.Errorf("run %d: no stdlib imports recorded", run)
		}
		if got := renderChecked(pkgs); got != want {
			t.Errorf("run %d: cached load differs from source load:\n--- source ---\n%s\n--- cached ---\n%s",
				run, want, got)
		}
	}
}

// TestCachedLoaderParallel runs the cached loader through the parallel
// path, exercising lockedImporter around the gc importer.
func TestCachedLoaderParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the stdlib export index")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(cacheEnvVar, t.TempDir())

	patterns := []string{"internal/stats", "internal/parallel", "internal/snapio", "internal/lint/testdata/floateq"}
	serial, _, err := LoadWith(root, 1, true, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	par, stats, err := LoadWith(root, 4, true, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != ModeCache {
		t.Errorf("mode = %q, want %q", stats.Mode, ModeCache)
	}
	if got, want := renderChecked(par), renderChecked(serial); got != want {
		t.Errorf("parallel cached load differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

// TestExportIndexValidation pins the staleness rules: an index for a
// different toolchain, or one naming pruned export files, is rejected.
func TestExportIndexValidation(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(cacheEnvVar, dir)

	write := func(idx exportIndex) {
		t.Helper()
		path, err := indexPath()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if idx := loadExportIndex(); idx != nil {
		t.Fatal("empty cache dir yielded an index")
	}

	exportFile := filepath.Join(dir, "fmt.a")
	if err := os.WriteFile(exportFile, []byte("not real export data"), 0o644); err != nil {
		t.Fatal(err)
	}
	valid := exportIndex{GoVersion: runtime.Version(), Goroot: runtime.GOROOT(), Exports: map[string]string{"fmt": exportFile}}
	write(valid)
	if idx := loadExportIndex(); idx == nil {
		t.Error("valid index rejected")
	}

	stale := valid
	stale.GoVersion = "go0.0"
	write(stale)
	if idx := loadExportIndex(); idx != nil {
		t.Error("index for another toolchain accepted")
	}

	pruned := valid
	pruned.Exports = map[string]string{"fmt": filepath.Join(dir, "gone.a")}
	write(pruned)
	if idx := loadExportIndex(); idx != nil {
		t.Error("index with pruned export files accepted")
	}
}

// TestCachedLoaderFallsBackToSource pins the degradation contract: when
// the go tool cannot be run, NewCachedLoader still works, via the
// source importer.
func TestCachedLoaderFallsBackToSource(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(cacheEnvVar, t.TempDir())
	t.Setenv("PATH", t.TempDir()) // no go tool reachable

	l, err := NewCachedLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if l.Stats.Mode != ModeSource {
		t.Errorf("mode = %q, want %q", l.Stats.Mode, ModeSource)
	}
	pkg, err := l.LoadDir(filepath.Join(root, "internal", "parallel"))
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil || pkg.Types == nil {
		t.Fatal("fallback loader failed to load a package")
	}
}
