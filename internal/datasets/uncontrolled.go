package datasets

import (
	"math/rand"
	"time"

	"behaviot/internal/flows"
	"behaviot/internal/netparse"
	"behaviot/internal/testbed"
)

// UncontrolledStart anchors the uncontrolled dataset at the paper's
// three-month user study (December 2021 – February 2022).
var UncontrolledStart = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

// IncidentKind enumerates the scripted §6.2 incidents.
type IncidentKind string

// Incident kinds, mapped to the paper's cases.
const (
	// IncidentRelocation: a camera moved to a motion-sensitive spot
	// (cases 1, 4, 5) — its motion events fire far more often.
	IncidentRelocation IncidentKind = "camera-relocation"
	// IncidentMisactivationStorm: 50 consecutive voice activations in 30
	// minutes (case 2, the Dec 13 lab experiment).
	IncidentMisactivationStorm IncidentKind = "misactivation-storm"
	// IncidentDeviceReset: repeating events from reset/misconfigured
	// devices (case 3, Dec 15: SmartLife Bulb + SwitchBot Hub).
	IncidentDeviceReset IncidentKind = "device-reset"
	// IncidentNetworkOutage: whole-testbed connectivity loss for hours
	// (cases 6–8).
	IncidentNetworkOutage IncidentKind = "network-outage"
	// IncidentDeviceMalfunction: SwitchBot Hub repeatedly dropping
	// offline for minutes-to-hours (case 9).
	IncidentDeviceMalfunction IncidentKind = "device-malfunction"
)

// Incident is one scripted behavior change in the uncontrolled dataset.
type Incident struct {
	Kind IncidentKind
	Day  int // 0-based day index
	// Devices involved.
	Devices []string
	// StartHour/EndHour bound the incident within the day.
	StartHour, EndHour float64
}

// interactionsPerDay is the mean number of participant-triggered traces
// per day of the uncontrolled dataset.
const interactionsPerDay = 8

// UncontrolledConfig tunes the 87-day uncontrolled dataset.
type UncontrolledConfig struct {
	// Days is the study length (default 87).
	Days int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds generation concurrency (0 = all cores). Output is
	// byte-identical for every value.
	Workers int
}

func (c UncontrolledConfig) withDefaults() UncontrolledConfig {
	if c.Days <= 0 {
		c.Days = 87
	}
	return c
}

// DefaultIncidents reproduces the §6.2 timeline shape: relocations near
// the study start, the Dec 13 storm (day 12), the Dec 15 resets (day 14),
// outages spread across the months, and recurring SwitchBot malfunctions.
func DefaultIncidents(cfg UncontrolledConfig) []Incident {
	cfg = cfg.withDefaults()
	// The three outages (cases 6–8) hit different segments of the testbed:
	// one full outage and two partial ones (devices on the affected
	// switch / temporarily removed for other experiments).
	segmentA := []string{
		"Echo Dot", "Echo Dot3", "Echo Dot4", "Echo Flex", "Echo Plus",
		"Echo Show5", "Echo Spot", "Google Home Mini", "Google Nest Mini",
		"Homepod Mini", "Homepod", "Samsung Fridge",
	}
	segmentB := []string{
		"D-Link Camera", "iCSee Doorbell", "Microseven Camera",
		"Ring Camera", "Ring Doorbell", "Tuya Camera", "Ubell Doorbell",
		"Wansview Camera", "Yi Camera", "Wyze Camera",
	}
	incidents := []Incident{
		{Kind: IncidentRelocation, Day: 3, Devices: []string{"Wyze Camera"}, StartHour: 0, EndHour: 24},
		{Kind: IncidentRelocation, Day: 4, Devices: []string{"Wyze Camera"}, StartHour: 0, EndHour: 24},
		{Kind: IncidentRelocation, Day: 8, Devices: []string{"Wyze Camera"}, StartHour: 0, EndHour: 24},
		{Kind: IncidentMisactivationStorm, Day: 12, Devices: []string{"Echo Spot"}, StartHour: 14, EndHour: 14.5},
		{Kind: IncidentDeviceReset, Day: 14, Devices: []string{"Smartlife Bulb", "SwitchBot Hub"}, StartHour: 10, EndHour: 16},
		{Kind: IncidentNetworkOutage, Day: 27, Devices: segmentA, StartHour: 9, EndHour: 17},
		{Kind: IncidentNetworkOutage, Day: 45, StartHour: 0, EndHour: 10},
		{Kind: IncidentNetworkOutage, Day: 66, Devices: segmentB, StartHour: 13, EndHour: 23},
	}
	// Case 9: SwitchBot Hub malfunctioning on scattered days (only for
	// studies long enough to reach the malfunction phase).
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0xD00D))
	if span := cfg.Days - 22; span > 0 {
		for i := 0; i < 14; i++ {
			day := 20 + rng.Intn(span)
			start := float64(rng.Intn(22))
			incidents = append(incidents, Incident{
				Kind: IncidentDeviceMalfunction, Day: day,
				Devices:   []string{"SwitchBot Hub"},
				StartHour: start, EndHour: start + 0.3 + rng.Float64()*2,
			})
		}
	}
	// Drop anything scripted past the study end.
	kept := incidents[:0]
	for _, inc := range incidents {
		if inc.Day < cfg.Days {
			kept = append(kept, inc)
		}
	}
	return kept
}

// UncontrolledDay generates one day of the uncontrolled dataset: idle
// background for 47 devices (two devices left the testbed, §3.3),
// participant interactions, and whatever incidents are scripted for the
// day. The returned flows are fully annotated.
func UncontrolledDay(tb *testbed.Testbed, cfg UncontrolledConfig, incidents []Incident, day int) []*flows.Flow {
	cfg = cfg.withDefaults()
	g := testbed.NewGenerator(tb, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(day)*0x9E3779B9))
	dayStart := UncontrolledStart.Add(time.Duration(day) * 24 * time.Hour)
	dayEnd := dayStart.Add(24 * time.Hour)

	// Two devices did not stay online for the study (47 of 49).
	offline := map[string]bool{"Wink Hub2": true, "LeFun Camera": true}

	var todays []Incident
	for _, inc := range incidents {
		if inc.Day == day {
			todays = append(todays, inc)
		}
	}

	online := make([]*testbed.DeviceProfile, 0, len(tb.Devices))
	for _, d := range tb.Devices {
		if !offline[d.Name] {
			online = append(online, d)
		}
	}
	streams := backgroundStreams(g, online, dayStart.Add(-time.Minute), dayStart, dayEnd, cfg.Workers)

	// Participant interactions: routine executions and direct actions.
	devices := tb.RoutineDevices()
	n := interactionsPerDay/2 + rng.Intn(interactionsPerDay)
	times := spacedTimes(rng, dayStart.Add(7*time.Hour), 15*time.Hour, n, 3*time.Minute)
	rep := day * 1000
	for _, at := range times {
		if rng.Intn(3) > 0 {
			auto := &testbed.Automations[rng.Intn(len(testbed.Automations))]
			_, pkts := runAutomation(tb, g, auto, at, rep)
			streams = append(streams, pkts)
		} else {
			dev := devices[rng.Intn(len(devices))]
			act := &dev.Activities[rng.Intn(len(dev.Activities))]
			streams = append(streams, g.Activity(dev, act, at, rep))
		}
		rep++
	}

	// Apply incidents that add traffic.
	for _, inc := range todays {
		switch inc.Kind {
		case IncidentRelocation:
			// The relocated camera sees motion far more often: extra
			// motion events all day, each triggering its automation chain
			// (R12 for the Wyze Camera).
			for _, name := range inc.Devices {
				dev := tb.Device(name)
				act := dev.Activity("motion")
				if act == nil {
					continue
				}
				extra := spacedTimes(rng, dayStart.Add(time.Duration(inc.StartHour*float64(time.Hour))),
					time.Duration((inc.EndHour-inc.StartHour)*float64(time.Hour)), 25, 2*time.Minute)
				for _, at := range extra {
					if auto := cameraAutomation(name); auto != nil {
						_, pkts := runAutomation(tb, g, auto, at, rep)
						streams = append(streams, pkts)
					} else {
						streams = append(streams, g.Activity(dev, act, at, rep))
					}
					rep++
				}
			}
		case IncidentMisactivationStorm:
			dev := tb.Device(inc.Devices[0])
			act := dev.Activity("voice")
			at := dayStart.Add(time.Duration(inc.StartHour * float64(time.Hour)))
			for i := 0; i < 50; i++ {
				streams = append(streams, g.Activity(dev, act, at, rep))
				at = at.Add(30 * time.Second)
				rep++
			}
		case IncidentDeviceReset:
			// Reset devices spam their events in bursts across the window.
			for _, name := range inc.Devices {
				dev := tb.Device(name)
				if len(dev.Activities) == 0 {
					continue
				}
				at := dayStart.Add(time.Duration(inc.StartHour * float64(time.Hour)))
				end := dayStart.Add(time.Duration(inc.EndHour * float64(time.Hour)))
				for at.Before(end) {
					act := &dev.Activities[rng.Intn(len(dev.Activities))]
					streams = append(streams, g.Activity(dev, act, at, rep))
					at = at.Add(90 * time.Second)
					rep++
				}
			}
		}
	}

	pkts := testbed.MergePackets(streams...)

	// Apply incidents that remove traffic. Windows starting at hour 0
	// extend slightly backwards to cover the pre-day DNS bootstrap.
	windowOf := func(inc Incident) (time.Time, time.Time) {
		from := dayStart.Add(time.Duration(inc.StartHour * float64(time.Hour)))
		to := dayStart.Add(time.Duration(inc.EndHour * float64(time.Hour)))
		if inc.StartHour <= 0 {
			from = from.Add(-2 * time.Minute)
		}
		return from, to
	}
	for _, inc := range todays {
		switch inc.Kind {
		case IncidentNetworkOutage:
			from, to := windowOf(inc)
			// A nil device list means a whole-testbed outage; otherwise
			// only the listed segment loses connectivity (the paper's
			// cases 6–8 include partial outages and device removals).
			var drop map[string]bool
			if len(inc.Devices) > 0 {
				drop = map[string]bool{}
				for _, name := range inc.Devices {
					if d := tb.Device(name); d != nil {
						drop[d.IP.String()] = true
					}
				}
			}
			pkts = dropWindow(pkts, from, to, drop)
		case IncidentDeviceMalfunction:
			from, to := windowOf(inc)
			drop := map[string]bool{}
			for _, name := range inc.Devices {
				drop[tb.Device(name).IP.String()] = true
			}
			pkts = dropWindow(pkts, from, to, drop)
		}
	}
	return Assemble(tb, pkts)
}

// cameraAutomation returns the automation triggered by a camera's motion,
// if any (R12 for Wyze, R8 for Ring, R9 for D-Link).
func cameraAutomation(device string) *testbed.Automation {
	switch device {
	case "Wyze Camera":
		return testbed.AutomationByID("R12")
	case "Ring Camera":
		return testbed.AutomationByID("R8")
	case "D-Link Camera":
		return testbed.AutomationByID("R9")
	default:
		return nil
	}
}

// dropWindow removes packets within [from, to); when deviceIPs is non-nil
// only packets involving those IPs are dropped.
func dropWindow(pkts []*netparse.Packet, from, to time.Time, deviceIPs map[string]bool) []*netparse.Packet {
	out := pkts[:0]
	for _, p := range pkts {
		inWindow := !p.Timestamp.Before(from) && p.Timestamp.Before(to)
		if inWindow {
			if deviceIPs == nil {
				continue
			}
			if deviceIPs[p.SrcIP.String()] || deviceIPs[p.DstIP.String()] {
				continue
			}
		}
		out = append(out, p)
	}
	return out
}
