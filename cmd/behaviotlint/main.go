// Command behaviotlint runs the project's static-analysis suite (see
// internal/lint) over package patterns and exits nonzero when any
// finding survives suppression.
//
// Usage:
//
//	behaviotlint [-json] [-analyzers determinism,floateq] [patterns...]
//
// There is one way to load a tree: every matched package is parsed and
// type-checked in turn, the standard library through the source
// importer ($GOROOT/src, about three seconds for this repository). A
// package that does not type-check fails the run (exit 2) instead of
// being analyzed with partial type information.
//
// Patterns follow go-tool conventions relative to the module root:
// "./..." (default), "./internal/...", "./cmd/behaviotd". The module
// root is found by walking up from the working directory to go.mod.
//
// Output is one finding per line:
//
//	internal/stats/stats.go:152:5: [floateq] floating-point == comparison ...
//
// or, with -json, an object:
//
//	{
//	  "findings": [{file, line, col, analyzer, message}, ...],
//	  "summary": {
//	    "packages": 23, "findings": 0,
//	    "by_analyzer": {"errcheck": 0, ...}
//	  }
//	}
//
// with file paths relative to the module root. by_analyzer includes the
// pseudo-analyzer "lint", which counts malformed //lint:ignore
// directives (a bare ignore without a reason is itself a finding).
//
// Suppress an individual finding with a justified comment on the same
// line or the line above:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"behaviot/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// summary is the machine-readable tail of -json output.
type summary struct {
	Packages   int            `json:"packages"`
	Findings   int            `json:"findings"`
	ByAnalyzer map[string]int `json:"by_analyzer"`
}

type report struct {
	Findings []lint.Finding `json:"findings"`
	Summary  summary        `json:"summary"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("behaviotlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit findings plus a summary as JSON")
		analyzer = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list     = fs.Bool("list", false, "list analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All
	if *analyzer != "" {
		analyzers = nil
		for _, name := range strings.Split(*analyzer, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "behaviotlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "behaviotlint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "behaviotlint:", err)
		return 2
	}
	// Patterns are interpreted relative to the invocation directory so
	// `behaviotlint ./...` works from a subdirectory too.
	for i, p := range patterns {
		if !filepath.IsAbs(p) && cwd != root {
			rel, err := filepath.Rel(root, filepath.Join(cwd, p))
			if err == nil {
				patterns[i] = rel
			}
		}
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "behaviotlint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "behaviotlint:", err)
		return 2
	}

	var findings []lint.Finding
	for _, pkg := range pkgs {
		findings = append(findings, lint.Check(pkg, analyzers)...)
	}
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = rel
		}
	}
	lint.SortFindings(findings)

	if *jsonOut {
		if findings == nil {
			findings = []lint.Finding{}
		}
		sum := summary{
			Packages:   len(pkgs),
			Findings:   len(findings),
			ByAnalyzer: make(map[string]int),
		}
		for _, a := range analyzers {
			sum.ByAnalyzer[a.Name] = 0
		}
		for _, f := range findings {
			sum.ByAnalyzer[f.Analyzer]++
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Findings: findings, Summary: sum}); err != nil {
			fmt.Fprintln(stderr, "behaviotlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "behaviotlint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
