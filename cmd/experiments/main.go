// Command experiments regenerates the paper's tables and figures on the
// simulated testbed and prints them in the paper's format alongside the
// published values.
//
// Usage:
//
//	experiments -run all            # everything (paper scale, slow)
//	experiments -run table2,fig3    # selected experiments
//	experiments -quick              # reduced-scale datasets
//	experiments -run fig5 -days 87  # full uncontrolled replay
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"behaviot/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind flag parsing; taking argv and its
// streams keeps it callable from in-process tests.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runP    = fs.String("run", "all", "comma-separated experiments: periodicity,table2,table3,table4,table5,table9,fig3,fig4a,fig4a5fold,fig4b,fig4c,deviationcases,fig5a,fig5b,headline,ablations,impairment")
		quick   = fs.Bool("quick", false, "use reduced-scale datasets")
		days    = fs.Int("days", 87, "uncontrolled study length for fig5")
		seed    = fs.Int64("seed", 2021, "generation seed")
		workers = fs.Int("workers", 0, "generation/evaluation worker count (0 = all cores); results are identical for every value")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	scale := experiments.PaperScale()
	if *quick {
		scale = experiments.QuickScale()
		// Reduced scale also trims the uncontrolled replay unless the
		// caller asked for a specific window.
		if !flagSet(fs, "days") {
			*days = 16
		}
	}
	scale.Seed = *seed
	scale.Workers = *workers

	want := map[string]bool{}
	for _, name := range strings.Split(*runP, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]
	selected := func(names ...string) bool {
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	var lab *experiments.Lab
	getLab := func() *experiments.Lab {
		if lab == nil {
			fmt.Fprintf(stderr, "building lab (idle %dd, %d reps, routine %dd)...\n",
				scale.IdleDays, scale.ActivityReps, scale.RoutineDays)
			lab = experiments.NewLab(scale)
		}
		return lab
	}

	// Timings go to stderr so stdout is byte-identical across runs and
	// machines — CI diffs it against checked-in expectations.
	emit := func(title string, start time.Time, body fmt.Stringer) {
		fmt.Fprintf(stderr, "%s took %.1fs\n", title, time.Since(start).Seconds())
		fmt.Fprintf(stdout, "==== %s ====\n%s\n", title, body)
	}
	section := func(title string, body func() fmt.Stringer) {
		start := time.Now()
		emit(title, start, body())
	}
	ran := 0

	if selected("periodicity") {
		section("§5.1 periodicity", func() fmt.Stringer { return experiments.Periodicity(*seed, 100) })
		ran++
	}
	if selected("table2") {
		section("Table 2", func() fmt.Stringer { return experiments.Table2(getLab()) })
		ran++
	}
	if selected("table3") {
		section("Table 3", func() fmt.Stringer { return experiments.Table3(getLab()) })
		ran++
	}
	if selected("table4") {
		section("Table 4", func() fmt.Stringer { return experiments.Table4(getLab()) })
		ran++
	}
	if selected("table5") {
		section("Table 5", func() fmt.Stringer { return experiments.Table5(getLab()) })
		ran++
	}
	if selected("table9", "headline") {
		section("Table 9 + §6.1 headline", func() fmt.Stringer { return experiments.Table9(getLab()) })
		ran++
	}
	if selected("fig3") {
		section("Fig 3", func() fmt.Stringer { return experiments.Fig3(getLab()) })
		ran++
	}
	if selected("fig4a") {
		section("Fig 4a", func() fmt.Stringer { return experiments.Fig4a(getLab()) })
		ran++
	}
	if selected("fig4a5fold") {
		section("Fig 4a (5-fold)", func() fmt.Stringer { return experiments.Fig4aKFold(getLab(), 5) })
		ran++
	}
	if selected("fig4b") {
		section("Fig 4b", func() fmt.Stringer { return experiments.Fig4b(getLab()) })
		ran++
	}
	if selected("fig4c") {
		section("Fig 4c", func() fmt.Stringer { return experiments.Fig4c(getLab()) })
		ran++
	}
	if selected("deviationcases") {
		section("§5.3 deviation cases", func() fmt.Stringer { return experiments.DeviationCases(getLab()) })
		ran++
	}
	if selected("fig5", "fig5a", "fig5b") {
		section(fmt.Sprintf("Fig 5 (%d days)", *days), func() fmt.Stringer { return experiments.Fig5(getLab(), *days) })
		ran++
	}
	if selected("ablations") {
		section("Ablations", func() fmt.Stringer { return experiments.Ablations(getLab()) })
		ran++
	}
	if selected("impairment") {
		start := time.Now()
		r, err := experiments.Impairment(getLab())
		if err != nil {
			fmt.Fprintf(stderr, "impairment sweep: %v\n", err)
			return 1
		}
		emit("Impairment sweep", start, r)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "unknown experiment %q; see -h\n", *runP)
		return 2
	}
	return 0
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
