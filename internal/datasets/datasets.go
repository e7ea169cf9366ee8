// Package datasets synthesizes the paper's four datasets (§3) from the
// testbed simulator and assembles them into annotated flows via the real
// gateway pipeline (packet stream → flow bursts):
//
//   - Idle: N days of pure background traffic from all 49 devices.
//   - Activity: ≥30 labeled repetitions of every activity on the
//     activity-capable devices, with ground truth from the generator.
//   - Routine: one week of the 18 routine devices running the Table 7
//     automations plus direct voice/app interactions over idle background.
//   - Uncontrolled: 87 days of ad-hoc usage with scripted incidents
//     (relocation, misactivation storm, device resets, outages,
//     malfunction) reproducing the §6.2 cases.
package datasets

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"behaviot/internal/flows"
	"behaviot/internal/netparse"
	"behaviot/internal/parallel"
	"behaviot/internal/testbed"
)

// Generation is sharded per device (and, for the routine dataset, per
// day): every shard draws from a sub-generator derived via
// testbed.SubSeed, so its output is a pure function of (seed, shard ID)
// and shards can be generated on any number of workers in any order.
// Shard streams are combined with testbed.MergePackets, whose canonical
// total order makes the merged capture independent of completion order;
// the workers parameter therefore never changes output bytes, a property
// the determinism regressions assert for workers=1 vs workers=8.

// DefaultStart anchors the controlled datasets at the paper's collection
// period (August 2021).
var DefaultStart = time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC)

// NewAssembler builds a flow assembler configured for the testbed, with
// the reverse-DNS fallback for the local resolver registered.
func NewAssembler(tb *testbed.Testbed) *flows.Assembler {
	a := flows.NewAssembler(flows.Config{
		LocalPrefix: tb.LocalPrefix,
		DeviceByIP:  tb.DeviceByIP(),
	})
	a.Resolver().AddReverse(tb.DomainIP[testbed.LocalDNSDomain], testbed.LocalDNSDomain)
	// The gateway knows its DHCP leases: local devices resolve to
	// "<name>.local", so device-to-device flows group under a stable
	// local name.
	for _, d := range tb.Devices {
		a.Resolver().AddReverse(d.IP, localName(d.Name))
	}
	return a
}

// localName renders a device's mDNS-style local hostname.
func localName(device string) string {
	s := strings.ToLower(device)
	s = strings.ReplaceAll(s, " ", "-")
	return s + ".local"
}

// Assemble runs packets through a fresh testbed assembler.
func Assemble(tb *testbed.Testbed, pkts []*netparse.Packet) []*flows.Flow {
	a := NewAssembler(tb)
	for _, p := range pkts {
		a.Add(p)
	}
	return a.Flows()
}

// backgroundStream synthesizes one device's DNS bootstrap plus periodic
// window from a sub-generator derived for that device.
func backgroundStream(g *testbed.Generator, d *testbed.DeviceProfile, bootstrapAt time.Time, from, to time.Time) []*netparse.Packet {
	dg := g.ForDevice(d.Name)
	return append(dg.BootstrapDNS(d, bootstrapAt), dg.PeriodicWindow(d, from, to)...)
}

// backgroundStreams fans per-device background generation out across
// workers; the returned streams are indexed by device, independent of
// scheduling.
func backgroundStreams(g *testbed.Generator, devices []*testbed.DeviceProfile, bootstrapAt time.Time, from, to time.Time, workers int) [][]*netparse.Packet {
	return parallel.Map(workers, devices, func(_ int, d *testbed.DeviceProfile) []*netparse.Packet {
		return backgroundStream(g, d, bootstrapAt, from, to)
	})
}

// Idle generates the idle dataset: days of background-only traffic for the
// given devices (all 49 when devices is nil), starting at start. Device
// streams are generated on up to workers goroutines (0 = all cores).
func Idle(tb *testbed.Testbed, seed int64, start time.Time, days int, devices []*testbed.DeviceProfile, workers int) []*flows.Flow {
	if devices == nil {
		devices = tb.Devices
	}
	g := testbed.NewGenerator(tb, seed)
	end := start.Add(time.Duration(days) * 24 * time.Hour)
	streams := backgroundStreams(g, devices, start.Add(-time.Minute), start, end, workers)
	return Assemble(tb, testbed.MergePackets(streams...))
}

// ActivitySample is one labeled repetition of a user activity.
type ActivitySample struct {
	Device   string
	Activity string
	Label    string // "device:activity"
	Time     time.Time
	Flows    []*flows.Flow
}

// Activity generates the activity dataset: reps labeled repetitions of
// every activity on every activity-capable device. Each repetition is
// captured in isolation (as in the paper's controlled experiments) so the
// resulting flows carry exact ground truth. Devices are sharded across
// workers; each device's repetitions keep their slot in the global
// 2-minute schedule, so sample order and timestamps are identical for
// any worker count.
func Activity(tb *testbed.Testbed, seed int64, reps int, workers int) []ActivitySample {
	g := testbed.NewGenerator(tb, seed)
	devices := tb.ActivityDevices()
	// Prefix-sum the per-device sample counts so each shard knows its
	// first slot in the global schedule without seeing other shards.
	base := make([]int, len(devices))
	total := 0
	for i, dev := range devices {
		base[i] = total
		total += len(dev.Activities) * reps
	}
	perDevice := parallel.Map(workers, devices, func(di int, dev *testbed.DeviceProfile) []ActivitySample {
		dg := g.ForDevice(dev.Name)
		out := make([]ActivitySample, 0, len(dev.Activities)*reps)
		slot := base[di]
		for ai := range dev.Activities {
			act := &dev.Activities[ai]
			for r := 0; r < reps; r++ {
				at := DefaultStart.Add(time.Duration(slot) * 2 * time.Minute)
				slot++
				a := NewAssembler(tb)
				for _, p := range dg.BootstrapDNS(dev, at.Add(-30*time.Second)) {
					a.Add(p)
				}
				a.Flows() // drain DNS bootstrap flows
				for _, p := range dg.Activity(dev, act, at, r) {
					a.Add(p)
				}
				fs := a.Flows()
				out = append(out, ActivitySample{
					Device:   dev.Name,
					Activity: act.Name,
					Label:    dev.Name + ":" + act.Name,
					Time:     at,
					Flows:    fs,
				})
			}
		}
		return out
	})
	out := make([]ActivitySample, 0, total)
	for _, samples := range perDevice {
		out = append(out, samples...)
	}
	return out
}

// LabeledFlows regroups activity samples into the label → flows map the
// user-action trainer consumes.
func LabeledFlows(samples []ActivitySample) map[string][]*flows.Flow {
	out := map[string][]*flows.Flow{}
	for _, s := range samples {
		out[s.Label] = append(out[s.Label], s.Flows...)
	}
	return out
}

// ExecutedStep is one ground-truth user event of the routine dataset.
type ExecutedStep struct {
	Device   string
	Activity string
	Label    string
	Time     time.Time
}

// Execution is one run of an automation (or a direct interaction).
type Execution struct {
	AutomationID string // "" for direct interactions
	Steps        []ExecutedStep
}

// RoutineDataset is the routine dataset with its ground truth.
type RoutineDataset struct {
	Flows      []*flows.Flow
	Executions []Execution
	Start, End time.Time
}

// RoutineConfig tunes routine dataset generation.
type RoutineConfig struct {
	Days int // default 7 (one week, §3.2)
	// RunsPerDay is the number of automation executions per day
	// (default 25, yielding ≈200 traces over a week as in the paper).
	RunsPerDay int
	// DirectPerDay is the number of additional direct interactions per
	// day (default 5).
	DirectPerDay int
	// Workers bounds generation concurrency (0 = all cores). Output is
	// byte-identical for every value.
	Workers int
}

func (c RoutineConfig) withDefaults() RoutineConfig {
	if c.Days <= 0 {
		c.Days = 7
	}
	if c.RunsPerDay <= 0 {
		c.RunsPerDay = 25
	}
	if c.DirectPerDay < 0 {
		c.DirectPerDay = 0
	} else if c.DirectPerDay == 0 {
		c.DirectPerDay = 5
	}
	return c
}

// routineDay is one sharded day of routine generation: the executions
// scheduled for the day and their packet streams.
type routineDay struct {
	executions []Execution
	streams    [][]*netparse.Packet
}

// Routine generates the routine dataset: automations R1–R16 executed at
// scheduled times over the routine devices' idle background, plus direct
// interactions. Days (and background devices) are sharded across
// workers; each day schedules from its own sub-RNG derived via
// testbed.SubSeed, so the dataset is identical for any worker count.
func Routine(tb *testbed.Testbed, seed int64, start time.Time, cfg RoutineConfig) *RoutineDataset {
	cfg = cfg.withDefaults()
	g := testbed.NewGenerator(tb, seed)
	end := start.Add(time.Duration(cfg.Days) * 24 * time.Hour)

	devices := tb.RoutineDevices()
	streams := backgroundStreams(g, devices, start.Add(-time.Minute), start, end, cfg.Workers)

	ds := &RoutineDataset{Start: start, End: end}
	days := make([]int, cfg.Days)
	for i := range days {
		days[i] = i
	}
	perDay := parallel.Map(cfg.Workers, days, func(_ int, day int) routineDay {
		rng := rand.New(rand.NewSource(testbed.SubSeed(seed, "routine-day", fmt.Sprint(day))))
		dayStart := start.Add(time.Duration(day) * 24 * time.Hour)
		// Repetition indices only need to be unique per (device,
		// activity) pair to decorrelate payload jitter; a fixed per-day
		// base keeps them shard-local.
		rep := day * (cfg.RunsPerDay + cfg.DirectPerDay)
		var rd routineDay
		times := spacedTimes(rng, dayStart, 24*time.Hour, cfg.RunsPerDay+cfg.DirectPerDay, 3*time.Minute)
		for i, at := range times {
			if i < cfg.RunsPerDay {
				auto := &testbed.Automations[rng.Intn(len(testbed.Automations))]
				exec, pkts := runAutomation(tb, g, auto, at, rep)
				rep++
				rd.executions = append(rd.executions, exec)
				rd.streams = append(rd.streams, pkts)
			} else {
				dev := devices[rng.Intn(len(devices))]
				act := &dev.Activities[rng.Intn(len(dev.Activities))]
				pkts := g.Activity(dev, act, at, rep)
				rep++
				rd.executions = append(rd.executions, Execution{
					Steps: []ExecutedStep{{
						Device: dev.Name, Activity: act.Name,
						Label: dev.Name + ":" + act.Name, Time: at,
					}},
				})
				rd.streams = append(rd.streams, pkts)
			}
		}
		return rd
	})
	for _, rd := range perDay {
		ds.Executions = append(ds.Executions, rd.executions...)
		streams = append(streams, rd.streams...)
	}
	ds.Flows = Assemble(tb, testbed.MergePackets(streams...))
	return ds
}

// runAutomation synthesizes one automation execution.
func runAutomation(tb *testbed.Testbed, g *testbed.Generator, auto *testbed.Automation, at time.Time, rep int) (Execution, []*netparse.Packet) {
	exec := Execution{AutomationID: auto.ID}
	var pkts []*netparse.Packet
	t := at
	for _, step := range auto.Steps {
		t = t.Add(step.Delay)
		dev := tb.Device(step.Device)
		act := dev.Activity(step.Activity)
		pkts = append(pkts, g.Activity(dev, act, t, rep)...)
		exec.Steps = append(exec.Steps, ExecutedStep{
			Device: step.Device, Activity: step.Activity,
			Label: step.Device + ":" + step.Activity, Time: t,
		})
	}
	return exec, pkts
}

// spacedTimes draws n random times within [start, start+span) that are at
// least minGap apart, sorted.
func spacedTimes(rng *rand.Rand, start time.Time, span time.Duration, n int, minGap time.Duration) []time.Time {
	// Draw offsets on a grid of minGap slots to guarantee spacing.
	slots := int(span / minGap)
	if n > slots {
		n = slots
	}
	chosen := map[int]bool{}
	for len(chosen) < n {
		chosen[rng.Intn(slots)] = true
	}
	out := make([]time.Time, 0, n)
	for s := 0; s < slots; s++ {
		if chosen[s] {
			jitterNs := rng.Int63n(int64(minGap) / 2)
			out = append(out, start.Add(time.Duration(s)*minGap+time.Duration(jitterNs)))
		}
	}
	return out
}

// GroundTruthTraces converts routine executions into the expected
// user-event traces (one per execution).
func (ds *RoutineDataset) GroundTruthTraces() [][]string {
	var out [][]string
	for _, e := range ds.Executions {
		var tr []string
		for _, s := range e.Steps {
			tr = append(tr, s.Label)
		}
		out = append(out, tr)
	}
	return out
}
