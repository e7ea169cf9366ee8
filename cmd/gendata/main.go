// Command gendata synthesizes the paper's datasets from the simulated
// 49-device testbed and writes them as pcap files, one capture per
// dataset, plus a devices.csv manifest mapping IPs to device names.
//
// Generation fans out across devices on a bounded worker pool; the
// output bytes are identical for every -workers value because each
// device derives its own sub-seeded generator and the per-device
// streams are k-way merged in canonical packet order.
//
// Usage:
//
//	gendata -out ./data -dataset idle -days 5
//	gendata -out ./data -dataset activity -reps 30
//	gendata -out ./data -dataset routine -days 7
//	gendata -out ./data -dataset uncontrolled -days 3 -workers 4
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"behaviot/internal/datasets"
	"behaviot/internal/netparse"
	"behaviot/internal/parallel"
	"behaviot/internal/testbed"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind flag parsing; taking argv and its
// streams keeps it callable from in-process tests. Progress lines and
// errors both go to stderr; stdout stays empty.
func run(args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("gendata", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out     = fs.String("out", "data", "output directory")
		dataset = fs.String("dataset", "idle", "idle | activity | routine | uncontrolled")
		days    = fs.Int("days", 2, "capture length in days (idle/routine/uncontrolled)")
		reps    = fs.Int("reps", 30, "repetitions per activity (activity dataset)")
		seed    = fs.Int64("seed", 2021, "generation seed")
		workers = fs.Int("workers", 0, "generation worker count (0 = all cores); output is byte-identical for every value")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(stderr, "", 0)
	if err := generate(logger, *out, *dataset, *days, *reps, *seed, *workers); err != nil {
		logger.Print(err)
		return 1
	}
	return 0
}

// generate writes the device manifest and the chosen dataset into out.
func generate(logger *log.Logger, out, dataset string, days, reps int, seed int64, workers int) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tb := testbed.New()
	if err := writeManifest(tb, filepath.Join(out, "devices.csv")); err != nil {
		return err
	}

	switch dataset {
	case "idle":
		g := testbed.NewGenerator(tb, seed)
		start := datasets.DefaultStart
		end := start.Add(time.Duration(days) * 24 * time.Hour)
		// One sorted stream per device, generated concurrently from the
		// device's sub-seeded generator.
		streams := parallel.Map(workers, tb.Devices, func(_ int, d *testbed.DeviceProfile) []*netparse.Packet {
			dg := g.ForDevice(d.Name)
			return testbed.MergePackets(
				dg.BootstrapDNS(d, start.Add(-time.Minute)),
				dg.PeriodicWindow(d, start, end))
		})
		return writePcapStreams(logger, filepath.Join(out, "idle.pcap"), workers, streams)
	case "activity":
		g := testbed.NewGenerator(tb, seed)
		// Lay out the global schedule first (cheap), then synthesize each
		// slot on the worker pool.
		type job struct {
			dev  *testbed.DeviceProfile
			act  *testbed.ActivitySpec
			at   time.Time
			rep  int
			boot bool
		}
		var jobs []job
		labelRows := []string{"time,device,activity,label"}
		at := datasets.DefaultStart
		for _, dev := range tb.ActivityDevices() {
			jobs = append(jobs, job{dev: dev, at: at.Add(-30 * time.Second), boot: true})
			for ai := range dev.Activities {
				act := &dev.Activities[ai]
				for r := 0; r < reps; r++ {
					jobs = append(jobs, job{dev: dev, act: act, at: at, rep: r})
					labelRows = append(labelRows, fmt.Sprintf("%s,%s,%s,%s:%s",
						at.Format(time.RFC3339), dev.Name, act.Name, dev.Name, act.Name))
					at = at.Add(2 * time.Minute)
				}
			}
		}
		streams := parallel.Map(workers, jobs, func(_ int, j job) []*netparse.Packet {
			dg := g.ForDevice(j.dev.Name)
			if j.boot {
				return testbed.MergePackets(dg.BootstrapDNS(j.dev, j.at))
			}
			return testbed.MergePackets(dg.Activity(j.dev, j.act, j.at, j.rep))
		})
		if err := writePcapStreams(logger, filepath.Join(out, "activity.pcap"), workers, streams); err != nil {
			return err
		}
		return writeLines(logger, filepath.Join(out, "activity_labels.csv"), labelRows)
	case "routine":
		ds := datasets.Routine(tb, seed, datasets.DefaultStart, datasets.RoutineConfig{Days: days, Workers: workers})
		// The routine dataset is produced as flows; regenerate its packet
		// stream for the pcap by re-running generation (flows retain no
		// payloads). For pcap export we re-synthesize the same windows.
		logger.Printf("routine dataset: %d flows, %d executions (flows exported as CSV)", len(ds.Flows), len(ds.Executions))
		rows := []string{"start,device,domain,proto,packets,bytes"}
		for _, f := range ds.Flows {
			rows = append(rows, fmt.Sprintf("%s,%s,%s,%s,%d,%d",
				f.Start.Format(time.RFC3339Nano), f.Device, f.Domain, f.Proto, len(f.Packets), f.Bytes()))
		}
		if err := writeLines(logger, filepath.Join(out, "routine_flows.csv"), rows); err != nil {
			return err
		}
		gt := []string{"automation,step_time,device,activity"}
		for _, e := range ds.Executions {
			for _, s := range e.Steps {
				gt = append(gt, fmt.Sprintf("%s,%s,%s,%s",
					e.AutomationID, s.Time.Format(time.RFC3339), s.Device, s.Activity))
			}
		}
		return writeLines(logger, filepath.Join(out, "routine_groundtruth.csv"), gt)
	case "uncontrolled":
		cfg := datasets.UncontrolledConfig{Days: days, Seed: seed, Workers: workers}
		incidents := datasets.DefaultIncidents(cfg)
		// Each day is an independent function of (cfg, incidents, day);
		// collect by day index so row order never depends on scheduling.
		dayIdx := make([]int, days)
		for i := range dayIdx {
			dayIdx[i] = i
		}
		perDay := parallel.Map(workers, dayIdx, func(_ int, day int) []string {
			var rows []string
			for _, f := range datasets.UncontrolledDay(tb, cfg, incidents, day) {
				rows = append(rows, fmt.Sprintf("%s,%s,%s,%s,%d,%d",
					f.Start.Format(time.RFC3339Nano), f.Device, f.Domain, f.Proto, len(f.Packets), f.Bytes()))
			}
			return rows
		})
		rows := []string{"start,device,domain,proto,packets,bytes"}
		for _, day := range perDay {
			rows = append(rows, day...)
		}
		return writeLines(logger, filepath.Join(out, "uncontrolled_flows.csv"), rows)
	default:
		return fmt.Errorf("unknown dataset %q", dataset)
	}
}

// writePcapStreams merges the per-device streams into one capture. The
// file is closed explicitly and the Close error checked: Flush only
// drains the bufio layer, so a full disk can surface the loss at
// Close — a deferred, unchecked Close would silently truncate the
// capture.
func writePcapStreams(logger *log.Logger, path string, workers int, streams [][]*netparse.Packet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := datasets.WritePcapStreams(f, workers, streams); err != nil {
		f.Close() //lint:ignore errcheck write error already being reported
		return err
	}
	info, statErr := f.Stat()
	if err := f.Close(); err != nil {
		return err
	}
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	if statErr == nil {
		logger.Printf("wrote %s: %d packets, %d bytes", path, n, info.Size())
	}
	return nil
}

// writeLines writes one line per entry, checking both write and Close
// errors so a short write cannot pass silently.
func writeLines(logger *log.Logger, path string, lines []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, l := range lines {
		if _, err := fmt.Fprintln(f, l); err != nil {
			f.Close() //lint:ignore errcheck write error already being reported
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	logger.Printf("wrote %s: %d rows", path, len(lines)-1)
	return nil
}

func writeManifest(tb *testbed.Testbed, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "ip,device,vendor,category")
	devs := append([]*testbed.DeviceProfile(nil), tb.Devices...)
	sort.Slice(devs, func(i, j int) bool { return devs[i].Name < devs[j].Name })
	for _, d := range devs {
		fmt.Fprintf(f, "%s,%s,%s,%s\n", d.IP, d.Name, d.Vendor, d.Category)
	}
	return f.Close()
}
