// Anomaly detection (paper §7.2): use BehavIoT's behavior models as a
// baseline and its deviation metrics as anomaly scores. The example
// trains on clean data, then monitors three suspicious days — a device
// malfunction (silent heartbeats), a misactivation storm, and a normal
// day — and reports what each metric flags.
//
//	go run ./examples/anomaly
package main

import (
	"fmt"
	"log"
	"time"

	"behaviot"
	"behaviot/internal/datasets"
	"behaviot/internal/testbed"
)

func main() {
	log.SetFlags(0)
	tb := testbed.New()
	devices := []*testbed.DeviceProfile{
		tb.Device("TPLink Plug"),
		tb.Device("SwitchBot Hub"),
		tb.Device("Echo Spot"),
		tb.Device("Ring Camera"),
		tb.Device("Gosund Bulb"),
	}
	names := map[string]bool{}
	for _, d := range devices {
		names[d.Name] = true
	}

	// Train device models on controlled data and the system model on a
	// routine week.
	log.Println("training behavior models...")
	idle := datasets.Idle(tb, 1, datasets.DefaultStart, 2, devices, 0)
	labeled := map[string][]*behaviot.Flow{}
	for _, s := range datasets.Activity(tb, 2, 15, 0) {
		if names[s.Device] {
			labeled[s.Label] = append(labeled[s.Label], s.Flows...)
		}
	}
	monitor, err := behaviot.Train(idle, labeled, behaviot.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	routine := datasets.Routine(tb, 3, datasets.DefaultStart.Add(7*24*time.Hour),
		datasets.RoutineConfig{Days: 2})
	var routineFlows []*behaviot.Flow
	for _, f := range routine.Flows {
		if names[f.Device] {
			routineFlows = append(routineFlows, f)
		}
	}
	monitor.LearnSystem(monitor.Classify(routineFlows))
	log.Printf("system model: %d states", monitor.System().NumStates())

	// Monitor three scenario days.
	cfg := datasets.UncontrolledConfig{Days: 30, Seed: 9}
	scenarios := []struct {
		name      string
		day       int
		incidents []datasets.Incident
	}{
		{"normal day", 1, nil},
		{"SwitchBot Hub malfunction (6h offline)", 2, []datasets.Incident{{
			Kind: datasets.IncidentDeviceMalfunction, Day: 2,
			Devices: []string{"SwitchBot Hub"}, StartHour: 9, EndHour: 15,
		}}},
		{"Echo Spot misactivation storm", 3, []datasets.Incident{{
			Kind: datasets.IncidentMisactivationStorm, Day: 3,
			Devices: []string{"Echo Spot"}, StartHour: 14, EndHour: 14.5,
		}}},
	}

	for _, sc := range scenarios {
		fs := datasets.UncontrolledDay(tb, cfg, sc.incidents, sc.day)
		var mine []*behaviot.Flow
		for _, f := range fs {
			if names[f.Device] {
				mine = append(mine, f)
			}
		}
		monitor.ResetTimers()
		events := monitor.Classify(mine)
		dayEnd := datasets.UncontrolledStart.Add(time.Duration(sc.day+1) * 24 * time.Hour)
		devs := monitor.Deviations(events, nil, dayEnd)

		fmt.Printf("\n=== %s ===\n", sc.name)
		fmt.Printf("%d flows, %d deviations\n", len(mine), len(devs))
		byKind := map[string][]behaviot.Deviation{}
		for _, d := range devs {
			byKind[d.Kind.String()] = append(byKind[d.Kind.String()], d)
		}
		// Sections print in metric order, not map order, so the output is
		// the same on every run.
		for _, kind := range []string{behaviot.DevPeriodic.String(), behaviot.DevShortTerm.String(), behaviot.DevLongTerm.String()} {
			list := byKind[kind]
			if len(list) == 0 {
				continue
			}
			fmt.Printf("  %s: %d\n", kind, len(list))
			for i, d := range list {
				if i >= 3 {
					fmt.Printf("    ... and %d more\n", len(list)-3)
					break
				}
				fmt.Printf("    score=%.2f device=%s %s\n", d.Score, d.Device, d.Detail)
			}
		}
		if len(devs) == 0 {
			fmt.Println("  (no significant deviations — behavior matches the baseline)")
		}
	}
}
