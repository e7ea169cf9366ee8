// Command bench is the repository's benchmark: a paced end-to-end load
// rig against a real `behaviotd -fleet` child, checked against an
// independent in-process reference, plus a traced in-process run that
// gives every layer its own number. See README.md in this directory.
//
//	go run ./bench --workload home-active --seed 1 --seconds 8 --trace 0
//
// Exit codes: 0 = valid run, 1 = invalid run or failed check, 2 = usage.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// runDeadline is the whole command's watchdog, inside the 180 s a
// benchmark run is allowed.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: home-steady, home-active or fleet-ckpt (default: all three in turn)")
		seed    = fs.Int64("seed", 1, "seed of the traffic generator; the same seed gives byte-identical input")
		seconds = fs.Int("seconds", defaultSeconds, "length of the paced phase")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics, and the spans in trace-<workload>.json under -work, in place of the end-to-end metrics")
		quick   = fs.Bool("quick", false, "smoke size: at most 8 tenants, one timed launch")
		out     = fs.String("out", "", "also write the full result (with sample counts and component times) to this JSON file")
		root    = fs.String("root", ".", "module root to build cmd/behaviotd from")
		work    = fs.String("work", defaultWorkRoot, "directory for the built daemon and per-run scratch directories")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	var todo []workload
	if *name == "" {
		todo = workloads
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	// A signal or the watchdog must not leave a daemon behind: both cancel
	// the context every child is started under, which kills it; the rig
	// then fails on its next wait and unwinds through its deferred
	// clean-up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline*time.Duration(len(todo)))
	defer cancel()

	var all []*runResult
	for _, w := range todo {
		if *quick {
			w = w.quick()
		}
		cfg := runConfig{
			root: *root, workRoot: *work, w: w, seed: *seed, seconds: *seconds,
			trace: *trace == 1, setups: freshSetups,
		}
		if cfg.trace || *quick {
			cfg.setups = 1
		}
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		all = append(all, res)
		if err := printResult(stdout, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// printResult prints every metric by name and unit, then the one-line
// JSON object the benchmark driver reads: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func printResult(w io.Writer, res *runResult) error {
	metrics := res.EndToEnd
	if metrics == nil {
		metrics = res.PerLayer
	}
	table := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "# %s %s (seed %d, %d s)\n", res.Workload, title, res.Seed, res.Seconds)
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%-40s %14.4f %s\n", name, m[name].Value, m[name].Unit)
		}
	}
	table("info", res.Info)
	table("end-to-end", res.EndToEnd)
	table("per-layer", res.PerLayer)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return fmt.Errorf("result does not encode (a non-finite metric?): %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
