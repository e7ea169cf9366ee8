// Command benchjson converts `go test -bench` text output into a JSON
// report, so CI can archive benchmark results as a machine-readable
// artifact and successive runs can be compared without scraping logs.
// It uses only the standard library.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -benchmem ./... | benchjson -out BENCH_2026-08-06.json
//	benchjson -in bench.txt            # writes BENCH_<today>.json
//	benchjson -in bench.txt -compare BENCH_baseline.json
//
// With -compare the command is an exact ratchet: after writing the
// report it exits nonzero if any baseline benchmark increased its
// allocs/op or its ckptB/op at all, or disappeared from the run. Both
// metrics are deterministic for a fixed iteration count, so the
// verdict is the same on every machine; wall-clock numbers are
// archived, never compared. The default output name honors
// SOURCE_DATE_EPOCH so scripted runs produce a stable path.
//
// Lines that are not benchmark results (test logs, PASS/ok trailers)
// are ignored, so the full `go test` stream can be piped in unfiltered.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Procs       int     `json:"procs,omitempty"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	// CkptBytesPerOp is the custom ckptB/op metric the checkpoint-bytes
	// benchmark reports: average store payload bytes per checkpoint.
	// Deterministic for a fixed iteration count, so it ratchets
	// exactly, like allocs/op.
	CkptBytesPerOp float64 `json:"ckpt_bytes_per_op,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var (
		in      = flag.String("in", "", "input file (default: stdin)")
		out     = flag.String("out", "", "output file (default: BENCH_<date>.json; date honors SOURCE_DATE_EPOCH)")
		compare = flag.String("compare", "", "baseline BENCH_*.json to ratchet against: exit nonzero on any allocs/op or ckptB/op increase, or a baseline benchmark missing from the run")
	)
	flag.Parse()
	log.SetFlags(0)

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	report, err := Parse(r)
	if err != nil {
		log.Fatal(err)
	}
	if len(report.Benchmarks) == 0 {
		log.Fatal("benchjson: no benchmark results in input")
	}

	path := *out
	if path == "" {
		// SOURCE_DATE_EPOCH (the reproducible-builds convention) pins
		// the default artifact name, so a ratchet job diffs a stable
		// path instead of chasing the wall clock across midnight.
		now := time.Now()
		if sde := os.Getenv("SOURCE_DATE_EPOCH"); sde != "" {
			sec, err := strconv.ParseInt(sde, 10, 64)
			if err != nil {
				log.Fatalf("benchjson: bad SOURCE_DATE_EPOCH %q: %v", sde, err)
			}
			now = time.Unix(sec, 0)
		}
		path = fmt.Sprintf("BENCH_%s.json", now.UTC().Format("2006-01-02"))
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //lint:ignore errcheck write error already being reported
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s: %d benchmarks", path, len(report.Benchmarks))

	if *compare != "" {
		base, err := readReport(*compare)
		if err != nil {
			log.Fatalf("benchjson: baseline: %v", err)
		}
		problems, notes := Compare(base, report)
		for _, n := range notes {
			log.Println("note:", n)
		}
		for _, p := range problems {
			log.Println("REGRESSION:", p)
		}
		if len(problems) > 0 {
			os.Exit(1)
		}
		log.Printf("ratchet ok: %d baseline benchmarks no worse than %s", len(base.Benchmarks), *compare)
	}
}

// readReport loads a previously written BENCH_*.json.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// Compare ratchets current against baseline on the two metrics that
// are exact and machine-independent: any allocs/op increase on a
// baseline benchmark is a regression, and so is any ckptB/op increase
// on one that reports it (deterministic payloads make checkpoint bytes
// a constant for a fixed iteration count). A benchmark missing from the
// current run fails too — the ratchet must not silently lose coverage.
// Improvements come back as notes so the baseline can be re-tightened
// deliberately.
func Compare(baseline, current *Report) (problems, notes []string) {
	cur := make(map[string]Result, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		cur[r.Pkg+"."+r.Name] = r
	}
	for _, b := range baseline.Benchmarks {
		key := b.Pkg + "." + b.Name
		c, ok := cur[key]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: present in baseline but missing from current run", key))
			continue
		}
		switch {
		case c.AllocsPerOp > b.AllocsPerOp:
			problems = append(problems, fmt.Sprintf("%s: allocs/op regressed %d -> %d (tolerance 0)",
				key, b.AllocsPerOp, c.AllocsPerOp))
		case c.AllocsPerOp < b.AllocsPerOp:
			notes = append(notes, fmt.Sprintf("%s: allocs/op improved %d -> %d; re-baseline to lock it in",
				key, b.AllocsPerOp, c.AllocsPerOp))
		}
		if b.CkptBytesPerOp > 0 {
			switch {
			//lint:ignore floateq exact zero means the run never emitted the metric
			case c.CkptBytesPerOp == 0:
				problems = append(problems, fmt.Sprintf(
					"%s: baseline reports ckptB/op but the current run does not", key))
			case c.CkptBytesPerOp > b.CkptBytesPerOp:
				problems = append(problems, fmt.Sprintf(
					"%s: checkpoint bytes regressed %.0f -> %.0f ckptB/op (tolerance 0)",
					key, b.CkptBytesPerOp, c.CkptBytesPerOp))
			case c.CkptBytesPerOp < b.CkptBytesPerOp:
				notes = append(notes, fmt.Sprintf(
					"%s: checkpoint bytes improved %.0f -> %.0f ckptB/op; re-baseline to lock it in",
					key, b.CkptBytesPerOp, c.CkptBytesPerOp))
			}
		}
	}
	return problems, notes
}

// Parse scans `go test -bench` output and collects every benchmark
// result line, together with the goos/goarch/cpu/pkg headers go test
// prints before each package's results.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseResultLine(line); ok {
				res.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseResultLine parses one benchmark result line, e.g.
//
//	BenchmarkClassifyDay-8  120  9876543 ns/op  12.3 MB/s  4096 B/op  17 allocs/op
//
// Lines starting with "Benchmark" that do not follow the result shape
// (such as b.Log output) are rejected.
func parseResultLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !hasUnit(fields, "ns/op") {
		return Result{}, false
	}
	res := Result{Name: fields[0]}
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name, res.Procs = res.Name[:i], procs
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res.Runs = runs
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Result{}, false
			}
			res.NsPerOp, seen = f, true
		case "B/op":
			res.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			res.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "MB/s":
			res.MBPerSec, _ = strconv.ParseFloat(val, 64)
		case "ckptB/op":
			res.CkptBytesPerOp, _ = strconv.ParseFloat(val, 64)
		}
	}
	return res, seen
}

// hasUnit reports whether any field equals the unit (result lines may
// carry extra measurements before ns/op in future go versions).
func hasUnit(fields []string, unit string) bool {
	for _, f := range fields {
		if f == unit {
			return true
		}
	}
	return false
}
