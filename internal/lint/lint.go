// Package lint implements behaviotlint, the project-specific static
// analysis suite. It is written against the standard library only
// (go/ast, go/parser, go/token, go/types) so the repository keeps its
// zero-dependency go.mod.
//
// Five analyzers enforce conventions that ordinary tests cannot: the
// evaluation pipeline depends on seeded, replayable traffic generators
// and on numerically careful model code, and the streaming monitor
// depends on documented lock discipline. A silent wall-clock read or a
// float == in the wrong package corrupts reproduction results without
// failing a single test, so these rules are machine-checked:
//
//   - determinism: generator packages must not read the wall clock or
//     use the global math/rand RNG.
//   - floateq: ==/!= on floating-point operands outside _test.go files.
//   - errcheck: call statements and blanket `_ =` discards of
//     error-returning functions outside tests.
//   - lockguard: fields documented as `// guards X` must only be
//     touched by methods that lock the named mutex.
//   - maprange: order-sensitive accumulation (slice appends, float
//     compound assignment) inside range-over-map loops in model
//     packages, where map iteration order would leak into trained
//     artifacts.
//
// Test files (*_test.go) are out of scope: the loader never parses
// them, so no analyzer sees test code and a directive written there
// suppresses nothing.
//
// Findings can be suppressed with a justified comment on the offending
// line or the line above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare ignore is itself reported.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// An Analyzer is one named rule run over a loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pkg *Package) []Finding
}

// All lists the analyzers behaviotlint runs, in report order.
var All = []*Analyzer{Determinism, FloatEq, ErrCheck, LockGuard, MapRange}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// finding builds a Finding from a position inside pkg.
func finding(pkg *Package, analyzer string, pos token.Pos, format string, args ...any) Finding {
	p := pkg.Fset.Position(pos)
	return Finding{
		Analyzer: analyzer,
		Pos:      p,
		File:     p.Filename,
		Line:     p.Line,
		Col:      p.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Check runs the given analyzers over pkg and returns the surviving
// findings after //lint:ignore suppression, sorted by position.
func Check(pkg *Package, analyzers []*Analyzer) []Finding {
	ig := collectIgnores(pkg)
	var out []Finding
	for _, a := range analyzers {
		for _, f := range a.Run(pkg) {
			if !ig.suppresses(f) {
				out = append(out, f)
			}
		}
	}
	out = append(out, ig.malformed...)
	SortFindings(out)
	return out
}

// SortFindings orders findings by file, line, column, then analyzer.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}
