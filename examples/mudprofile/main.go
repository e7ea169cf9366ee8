// MUD profile generation (paper §7.2): derive an RFC 8520 Manufacturer
// Usage Description profile from learned behavior models, then verify
// traffic against it. The paper observes that no device in its testbed
// ships a MUD profile and proposes BehavIoT's models as an automatic
// source: each periodic model and user-action destination becomes an ACE,
// and any traffic outside the profile is flagged as non-compliant.
//
//	go run ./examples/mudprofile
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"behaviot"
	"behaviot/examples/mudprofile/mud"
	"behaviot/internal/datasets"
	"behaviot/internal/testbed"
)

func main() {
	log.SetFlags(0)
	tb := testbed.New()
	target := tb.Device("TPLink Plug")
	devices := []*testbed.DeviceProfile{target}

	log.Printf("learning behavior models for %s...", target.Name)
	idle := datasets.Idle(tb, 1, datasets.DefaultStart, 2, devices, 0)
	labeled := map[string][]*behaviot.Flow{}
	var userFlows []*behaviot.Flow
	for _, s := range datasets.Activity(tb, 2, 15, 0) {
		if s.Device == target.Name {
			labeled[s.Label] = append(labeled[s.Label], s.Flows...)
			userFlows = append(userFlows, s.Flows...)
		}
	}
	monitor, err := behaviot.Train(idle, labeled, behaviot.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Generate the RFC 8520 document from the learned models.
	profile := mud.FromModels(target.Name,
		fmt.Sprintf("%s %s (BehavIoT-generated)", target.Vendor, target.Name),
		monitor.PeriodicModels(), userFlows, datasets.DefaultStart)
	doc, err := profile.JSON()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := os.Stdout.Write(doc); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// Compliance check: a fresh day of normal traffic should comply; a
	// flow to an unknown tracker (simulating rogue firmware) should not.
	day := datasets.Idle(tb, 9, datasets.DefaultStart.Add(5*24*time.Hour), 1, devices, 0)
	rogue := *day[0]
	rogue.Domain = "exfil.shady-tracker.example"
	day = append(day, &rogue)

	verdicts := profile.Check(day)
	bad := mud.NonCompliant(verdicts)
	for _, v := range bad {
		fmt.Fprintf(os.Stderr, "NON-COMPLIANT: %s → %s (%s): %s\n",
			v.Flow.Device, v.Flow.Domain, v.Flow.Proto, v.Reason)
	}
	fmt.Fprintf(os.Stderr, "compliance: %d of %d flows outside the MUD profile\n", len(bad), len(day))
	if len(bad) == 0 {
		log.Fatal("expected the rogue flow to be flagged")
	}
}
