package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: behaviot
cpu: AMD EPYC 7B13
BenchmarkClassifyDay-8   	     120	   9876543 ns/op	  12.30 MB/s	    4096 B/op	      17 allocs/op
BenchmarkPFSMInference-8 	    3000	    412345 ns/op
BenchmarkIdleGenerationWorkers/workers=4-8         	       2	 512345678 ns/op	 1048576 B/op	    9999 allocs/op
--- BENCH: BenchmarkClassifyDay-8
    bench_test.go:44:
        Table 2: Event inference per IoT device category
BenchmarkNotAResultLine just some log text
PASS
ok  	behaviot	12.345s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("platform = %s/%s", rep.Goos, rep.Goarch)
	}
	if rep.CPU != "AMD EPYC 7B13" {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %d, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}

	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkClassifyDay" || b0.Procs != 8 || b0.Runs != 120 {
		t.Errorf("b0 = %+v", b0)
	}
	if b0.NsPerOp != 9876543 || b0.BytesPerOp != 4096 || b0.AllocsPerOp != 17 || b0.MBPerSec != 12.30 {
		t.Errorf("b0 measurements = %+v", b0)
	}
	if b0.Pkg != "behaviot" {
		t.Errorf("b0 pkg = %q", b0.Pkg)
	}

	b1 := rep.Benchmarks[1]
	if b1.Name != "BenchmarkPFSMInference" || b1.NsPerOp != 412345 || b1.BytesPerOp != 0 {
		t.Errorf("b1 = %+v", b1)
	}

	b2 := rep.Benchmarks[2]
	if b2.Name != "BenchmarkIdleGenerationWorkers/workers=4" || b2.Procs != 8 {
		t.Errorf("b2 = %+v", b2)
	}
}

func TestParseRejectsNonResultLines(t *testing.T) {
	rep, err := Parse(strings.NewReader("BenchmarkFoo log text without numbers\nBenchmarkBar-4 12 notanumber ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("accepted junk: %+v", rep.Benchmarks)
	}
}

func mkReport(rs ...Result) *Report {
	return &Report{Goos: "linux", Goarch: "amd64", CPU: "cpu0", Benchmarks: rs}
}

// TestCompareRatchet pins the ratchet semantics: allocs/op and ckptB/op
// are exact with zero tolerance, missing benchmarks fail, improvements
// only note, and wall-clock numbers never enter the verdict.
func TestCompareRatchet(t *testing.T) {
	base := mkReport(
		Result{Name: "A", Pkg: "p", NsPerOp: 1000, AllocsPerOp: 0},
		Result{Name: "B", Pkg: "p", NsPerOp: 1000, AllocsPerOp: 3},
	)

	t.Run("identical run passes", func(t *testing.T) {
		problems, _ := Compare(base, base)
		if len(problems) != 0 {
			t.Errorf("problems = %v, want none", problems)
		}
	})

	t.Run("alloc regression fails", func(t *testing.T) {
		cur := mkReport(
			Result{Name: "A", Pkg: "p", NsPerOp: 1000, AllocsPerOp: 1},
			Result{Name: "B", Pkg: "p", NsPerOp: 1000, AllocsPerOp: 3},
		)
		problems, _ := Compare(base, cur)
		if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op regressed 0 -> 1") {
			t.Errorf("problems = %v, want one alloc regression", problems)
		}
	})

	t.Run("alloc improvement notes only", func(t *testing.T) {
		// B is also nine times slower: ns/op is archived, not compared.
		cur := mkReport(
			Result{Name: "A", Pkg: "p", NsPerOp: 1000, AllocsPerOp: 0},
			Result{Name: "B", Pkg: "p", NsPerOp: 9000, AllocsPerOp: 1},
		)
		problems, notes := Compare(base, cur)
		if len(problems) != 0 {
			t.Errorf("problems = %v, want none", problems)
		}
		if len(notes) != 1 || !strings.Contains(notes[0], "improved") {
			t.Errorf("notes = %v, want one improvement note", notes)
		}
	})

	t.Run("checkpoint bytes ratchet", func(t *testing.T) {
		ckptBase := mkReport(
			Result{Name: "C", Pkg: "p", NsPerOp: 5e6, CkptBytesPerOp: 60248},
		)
		// One byte of growth fails; disk-bound wall-clock swings never
		// count.
		cur := mkReport(
			Result{Name: "C", Pkg: "p", NsPerOp: 5e6, CkptBytesPerOp: 60249},
		)
		problems, _ := Compare(ckptBase, cur)
		if len(problems) != 1 || !strings.Contains(problems[0], "checkpoint bytes regressed 60248 -> 60249") {
			t.Errorf("problems = %v, want one checkpoint-bytes regression", problems)
		}
		// One byte fewer only notes.
		cur = mkReport(
			Result{Name: "C", Pkg: "p", NsPerOp: 25e6, CkptBytesPerOp: 60247},
		)
		problems, notes := Compare(ckptBase, cur)
		if len(problems) != 0 {
			t.Errorf("problems = %v, want none", problems)
		}
		if len(notes) != 1 || !strings.Contains(notes[0], "checkpoint bytes improved 60248 -> 60247") {
			t.Errorf("notes = %v, want one improvement note", notes)
		}
		// A run that lost the metric fails.
		cur = mkReport(
			Result{Name: "C", Pkg: "p", NsPerOp: 5e6},
		)
		problems, _ = Compare(ckptBase, cur)
		if len(problems) != 1 || !strings.Contains(problems[0], "does not") {
			t.Errorf("problems = %v, want one lost-metric failure", problems)
		}
	})

	t.Run("missing benchmark fails", func(t *testing.T) {
		cur := mkReport(
			Result{Name: "A", Pkg: "p", NsPerOp: 1000, AllocsPerOp: 0},
		)
		problems, _ := Compare(base, cur)
		if len(problems) != 1 || !strings.Contains(problems[0], "missing") {
			t.Errorf("problems = %v, want one missing-benchmark failure", problems)
		}
	})
}
