// Command behaviot runs the BehavIoT pipeline over pcap captures: it
// trains device behavior models from an idle capture plus a labeled
// activity capture, learns the system PFSM from a routine capture, and
// reports events and behavior deviations for an analysis capture.
//
// Usage:
//
//	behaviot -idle idle.pcap -activity activity.pcap -labels activity_labels.csv \
//	         -devices devices.csv -analyze day1.pcap [-dot pfsm.dot]
//
// The devices.csv manifest (ip,device,vendor,category) maps local IPs to
// device names; cmd/gendata produces all inputs for the simulated testbed.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"sort"
	"strings"
	"time"

	"behaviot"
	"behaviot/internal/datasets"
	"behaviot/internal/dnsdb"
	"behaviot/internal/flows"
)

func main() {
	var (
		idlePath    = flag.String("idle", "", "idle capture (pcap) for periodic models")
		actPath     = flag.String("activity", "", "labeled activity capture (pcap)")
		labelsPath  = flag.String("labels", "", "activity labels CSV (time,device,activity,label)")
		devicesPath = flag.String("devices", "", "device manifest CSV (ip,device,vendor,category)")
		analyzePath = flag.String("analyze", "", "capture to classify and check for deviations")
		routinePath = flag.String("routine", "", "optional routine capture (pcap) for the system model; defaults to the analysis capture")
		dotPath     = flag.String("dot", "", "write the learned PFSM in Graphviz format")
		localCIDR   = flag.String("local", "192.168.0.0/16", "local network prefix")
	)
	flag.Parse()
	log.SetFlags(0)

	if *idlePath == "" || *devicesPath == "" {
		log.Fatal("need at least -idle and -devices; see -h")
	}
	deviceByIP, err := datasets.LoadDevices(*devicesPath)
	if err != nil {
		log.Fatal(err)
	}
	prefix, err := netip.ParsePrefix(*localCIDR)
	if err != nil {
		log.Fatalf("bad -local: %v", err)
	}
	resolver := &dnsdb.DB{}
	load := func(path string) []*behaviot.Flow {
		if path == "" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		pkts, err := datasets.ReadPcap(f)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		a := flows.NewAssembler(flows.Config{
			LocalPrefix: prefix, DeviceByIP: deviceByIP, Resolver: resolver,
		})
		for _, p := range pkts {
			a.Add(p)
		}
		fs := a.Flows()
		log.Printf("%s: %d packets → %d flows", path, len(pkts), len(fs))
		return fs
	}

	idle := load(*idlePath)
	labeled := map[string][]*behaviot.Flow{}
	if *actPath != "" {
		if *labelsPath == "" {
			log.Fatal("-activity requires -labels")
		}
		labeled = labelFlows(load(*actPath), *labelsPath)
		log.Printf("labeled activities: %d", len(labeled))
	}

	monitor, err := behaviot.Train(idle, labeled, behaviot.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	models := monitor.PeriodicModels()
	log.Printf("trained %d periodic models", len(models))
	printModels(models)

	if *analyzePath == "" {
		return
	}
	systemSource := *routinePath
	if systemSource == "" {
		systemSource = *analyzePath
	}
	sysEvents := monitor.Classify(load(systemSource))
	traces := monitor.LearnSystem(sysEvents)
	log.Printf("system model: %d states, %d transitions from %d traces",
		monitor.System().NumStates(), monitor.System().TotalEdges(), len(traces))
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(monitor.System().DOT()), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *dotPath)
	}

	monitor.ResetTimers()
	target := load(*analyzePath)
	events := monitor.Classify(target)
	counts := map[behaviot.EventClass]int{}
	var windowEnd time.Time
	for _, e := range events {
		counts[e.Class]++
		if e.Time.After(windowEnd) {
			windowEnd = e.Time
		}
	}
	fmt.Printf("events: %d periodic, %d user, %d aperiodic\n",
		counts[behaviot.EventPeriodic], counts[behaviot.EventUser], counts[behaviot.EventAperiodic])
	for _, e := range events {
		if e.Class == behaviot.EventUser {
			fmt.Printf("  user event %s  %s (conf %.2f)\n",
				e.Time.Format(time.RFC3339), e.Label, e.Confidence)
		}
	}
	devs := monitor.Deviations(events, nil, windowEnd)
	fmt.Printf("deviations: %d\n", len(devs))
	for _, d := range devs {
		fmt.Printf("  [%s] %s score=%.2f %s\n", d.Kind, d.Device, d.Score, d.Detail)
	}
}

// labelFlows attributes activity flows to labels by time proximity: each
// labeled repetition claims the device's flows starting within 90 s.
func labelFlows(fs []*behaviot.Flow, labelsPath string) map[string][]*behaviot.Flow {
	f, err := os.Open(labelsPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	type rep struct {
		t      time.Time
		device string
		label  string
	}
	var reps []rep
	sc := bufio.NewScanner(f)
	first := true
	for sc.Scan() {
		if first {
			first = false
			continue
		}
		parts := strings.SplitN(strings.TrimSpace(sc.Text()), ",", 4)
		if len(parts) < 4 {
			continue
		}
		t, err := time.Parse(time.RFC3339, parts[0])
		if err != nil {
			continue
		}
		reps = append(reps, rep{t: t, device: parts[1], label: parts[3]})
	}
	out := map[string][]*behaviot.Flow{}
	for _, fl := range fs {
		if fl.Proto == "DNS" || fl.Proto == "NTP" {
			continue
		}
		for _, r := range reps {
			if fl.Device == r.device && !fl.Start.Before(r.t) && fl.Start.Sub(r.t) < 90*time.Second {
				out[r.label] = append(out[r.label], fl)
				break
			}
		}
	}
	return out
}

// printModels lists periodic models in the paper's proto-domain-period
// notation, grouped by device.
func printModels(models map[behaviot.GroupKey]*behaviot.PeriodicModel) {
	byDevice := map[string][]string{}
	for _, m := range models {
		byDevice[m.Key.Device] = append(byDevice[m.Key.Device], m.String())
	}
	devices := make([]string, 0, len(byDevice))
	for d := range byDevice {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	for _, d := range devices {
		sort.Strings(byDevice[d])
		fmt.Printf("%s: %s\n", d, strings.Join(byDevice[d], ", "))
	}
}
