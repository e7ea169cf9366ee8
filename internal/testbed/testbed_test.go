package testbed

import (
	"testing"
	"time"

	"behaviot/internal/netparse"
)

func TestRosterMatchesPaper(t *testing.T) {
	tb := New()
	if len(tb.Devices) != 49 {
		t.Fatalf("devices = %d, want 49 (Table 1)", len(tb.Devices))
	}
	counts := map[Category]int{}
	for _, d := range tb.Devices {
		counts[d.Category]++
	}
	want := map[Category]int{
		CatCamera: 11, CatSpeaker: 11, CatHomeAuto: 16, CatAppliance: 5, CatHub: 6,
	}
	for cat, n := range want {
		if counts[cat] != n {
			t.Errorf("%s = %d devices, want %d", cat, counts[cat], n)
		}
	}
}

func TestRoutineDevices(t *testing.T) {
	tb := New()
	rd := tb.RoutineDevices()
	if len(rd) != 18 { // paper §3.2
		t.Fatalf("routine devices = %d, want 18", len(rd))
	}
	for _, d := range rd {
		if len(d.Activities) == 0 {
			t.Errorf("routine device %q has no activities", d.Name)
		}
	}
}

func TestPeriodicModelCountsMatchTable4(t *testing.T) {
	tb := New()
	sums := map[Category]int{}
	counts := map[Category]int{}
	total := 0
	maxByCat := map[Category]struct {
		name string
		n    int
	}{}
	for _, d := range tb.Devices {
		n := len(d.Periodic)
		sums[d.Category] += n
		counts[d.Category]++
		total += n
		if n > maxByCat[d.Category].n {
			maxByCat[d.Category] = struct {
				name string
				n    int
			}{d.Name, n}
		}
	}
	// Table 4 averages: HomeAuto 4.06, Camera 5.82, Speaker 23.36,
	// Hub 6.00, Appliance 6.40; we require the same ordering and rough
	// magnitudes (±30%).
	avg := func(c Category) float64 { return float64(sums[c]) / float64(counts[c]) }
	within := func(got, want float64) bool { return got > want*0.7 && got < want*1.3 }
	for c, want := range map[Category]float64{
		CatHomeAuto: 4.06, CatCamera: 5.82, CatSpeaker: 23.36, CatHub: 6.0, CatAppliance: 6.4,
	} {
		if !within(avg(c), want) {
			t.Errorf("%s avg periodic models = %.2f, paper %.2f", c, avg(c), want)
		}
	}
	// Per-category maxima named in Table 4.
	wantMax := map[Category]string{
		CatHomeAuto: "Nest Thermostat", CatCamera: "iCSee Doorbell",
		CatSpeaker: "Echo Show5", CatHub: "Philips Hub", CatAppliance: "Samsung Fridge",
	}
	for c, name := range wantMax {
		if maxByCat[c].name != name {
			t.Errorf("%s max device = %q (%d models), paper %q", c, maxByCat[c].name, maxByCat[c].n, name)
		}
	}
	// Paper total: 454 periodic models across 49 devices.
	if total < 380 || total > 530 {
		t.Errorf("total periodic models = %d, paper 454", total)
	}
	t.Logf("total periodic models = %d (paper: 454)", total)
}

func TestEveryDeviceHasDNSAndNTP(t *testing.T) {
	tb := New()
	for _, d := range tb.Devices {
		var hasDNS, hasNTP bool
		for _, p := range d.Periodic {
			if p.Proto == "DNS" {
				hasDNS = true
			}
			if p.Proto == "NTP" {
				hasNTP = true
			}
		}
		if !hasDNS || !hasNTP {
			t.Errorf("%s: DNS=%v NTP=%v", d.Name, hasDNS, hasNTP)
		}
	}
}

func TestUniqueIPsAndDomains(t *testing.T) {
	tb := New()
	ips := map[string]bool{}
	for _, d := range tb.Devices {
		key := d.IP.String()
		if ips[key] {
			t.Errorf("duplicate device IP %s", key)
		}
		ips[key] = true
		if !tb.LocalPrefix.Contains(d.IP) {
			t.Errorf("%s IP %s outside local prefix", d.Name, d.IP)
		}
	}
	seen := map[string]string{}
	for dom, ip := range tb.DomainIP {
		if prev, ok := seen[ip.String()]; ok {
			t.Errorf("IP %s assigned to both %s and %s", ip, prev, dom)
		}
		seen[ip.String()] = dom
		if tb.LocalPrefix.Contains(ip) {
			t.Errorf("domain %s IP %s inside local prefix", dom, ip)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a, b := New(), New()
	for i := range a.Devices {
		da, db := a.Devices[i], b.Devices[i]
		if da.Name != db.Name || len(da.Periodic) != len(db.Periodic) {
			t.Fatalf("device %d differs across constructions", i)
		}
		for j := range da.Periodic {
			if da.Periodic[j] != db.Periodic[j] {
				t.Fatalf("%s periodic %d differs", da.Name, j)
			}
		}
	}
	for dom, ip := range a.DomainIP {
		if b.DomainIP[dom] != ip {
			t.Fatalf("domain %s IP differs", dom)
		}
	}
}

func TestAutomationsReferToRealDevicesAndActivities(t *testing.T) {
	tb := New()
	if len(Automations) != 16 {
		t.Fatalf("automations = %d, want 16 (Table 7)", len(Automations))
	}
	for _, auto := range Automations {
		for _, step := range auto.Steps {
			dev := tb.Device(step.Device)
			if dev == nil {
				t.Errorf("%s: unknown device %q", auto.ID, step.Device)
				continue
			}
			if !dev.InRoutines {
				t.Errorf("%s: device %q not in routine set", auto.ID, step.Device)
			}
			if dev.Activity(step.Activity) == nil {
				t.Errorf("%s: device %q lacks activity %q", auto.ID, step.Device, step.Activity)
			}
		}
	}
	if AutomationByID("R8") == nil || AutomationByID("R99") != nil {
		t.Error("AutomationByID lookup broken")
	}
}

func TestPeriodicWindowDeterministicAndComposable(t *testing.T) {
	tb := New()
	g := NewGenerator(tb, 1)
	dev := tb.Device("TPLink Plug")
	from := time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC)
	mid := from.Add(12 * time.Hour)
	to := from.Add(24 * time.Hour)

	full := g.PeriodicWindow(dev, from, to)
	split := append(g.PeriodicWindow(dev, from, mid), g.PeriodicWindow(dev, mid, to)...)
	if len(full) != len(split) {
		t.Fatalf("windowing changed packet count: %d vs %d", len(full), len(split))
	}
	for i := range full {
		if !full[i].Timestamp.Equal(split[i].Timestamp) || full[i].WireLen != split[i].WireLen {
			t.Fatalf("packet %d differs between full and split windows", i)
		}
	}
}

func TestPeriodicWindowRate(t *testing.T) {
	tb := New()
	g := NewGenerator(tb, 1)
	dev := tb.Device("TPLink Plug")
	from := time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(24 * time.Hour)
	pkts := g.PeriodicWindow(dev, from, to)
	if len(pkts) == 0 {
		t.Fatal("no periodic packets")
	}
	// The TCP heartbeat spec should produce roughly 86400/period events.
	var appSpec *PeriodicSpec
	var appIdx int
	for i := range dev.Periodic {
		if dev.Periodic[i].Proto == "TCP" || dev.Periodic[i].Proto == "UDP" {
			appSpec = &dev.Periodic[i]
			appIdx = i
			break
		}
	}
	if appSpec == nil {
		t.Fatal("no app-level periodic spec")
	}
	times := g.periodicEventTimes(dev, appIdx, from, to)
	wantEvents := int(to.Sub(from) / appSpec.Period)
	if len(times) < wantEvents-2 || len(times) > wantEvents+2 {
		t.Errorf("events = %d, want ~%d", len(times), wantEvents)
	}
	// Sorted output.
	for i := 1; i < len(pkts); i++ {
		if pkts[i].Timestamp.Before(pkts[i-1].Timestamp) {
			t.Fatal("packets not sorted")
		}
	}
}

func TestBootstrapDNSCoversDomains(t *testing.T) {
	tb := New()
	g := NewGenerator(tb, 1)
	dev := tb.Device("Echo Show5")
	pkts := g.BootstrapDNS(dev, time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC))
	if len(pkts) == 0 {
		t.Fatal("no DNS packets")
	}
	// Each response must decode and map a domain to its assigned IP.
	resolved := map[string]bool{}
	for _, p := range pkts {
		if p.SrcPort != 53 {
			continue
		}
		msg, err := netparse.DecodeDNS(p.Payload)
		if err != nil {
			t.Fatalf("bad DNS payload: %v", err)
		}
		for _, a := range msg.Answers {
			if tb.DomainIP[a.Name] != a.IP {
				t.Errorf("answer %s → %v, want %v", a.Name, a.IP, tb.DomainIP[a.Name])
			}
			resolved[a.Name] = true
		}
	}
	for _, spec := range dev.Periodic {
		if spec.Proto == "DNS" {
			continue
		}
		if !resolved[spec.Domain] {
			t.Errorf("domain %s not bootstrapped", spec.Domain)
		}
	}
}

func TestActivityTraffic(t *testing.T) {
	tb := New()
	g := NewGenerator(tb, 1)
	dev := tb.Device("TPLink Plug")
	act := dev.Activity("on")
	if act == nil {
		t.Fatal("no 'on' activity")
	}
	at := time.Date(2021, 8, 1, 10, 0, 0, 0, time.UTC)
	pkts := g.Activity(dev, act, at, 0)
	if len(pkts) < 2*len(act.Exchange) {
		t.Fatalf("packets = %d", len(pkts))
	}
	if !pkts[0].Timestamp.Equal(at) {
		t.Errorf("first packet at %v, want %v", pkts[0].Timestamp, at)
	}
	if pkts[0].SrcIP != dev.IP {
		t.Errorf("first packet src = %v", pkts[0].SrcIP)
	}
	// Repetitions with jitter differ; deterministic given same rep.
	again := g.Activity(dev, act, at, 0)
	if len(again) != len(pkts) {
		t.Fatal("same rep differs")
	}
	for i := range pkts {
		if pkts[i].WireLen != again[i].WireLen {
			t.Fatal("same rep produced different sizes")
		}
	}
}

func TestActivitySizesDifferAcrossActivities(t *testing.T) {
	// Distinct activities on the same device must have distinct exchange
	// sizes (otherwise the classifier target of Table 2 is unreachable).
	tb := New()
	for _, dev := range tb.ActivityDevices() {
		seen := map[int]string{}
		for _, act := range dev.Activities {
			sig := 0
			for i, p := range act.Exchange {
				sig = sig*1000003 + p[0]*31 + p[1] + i
			}
			if other, dup := seen[sig]; dup {
				t.Errorf("%s: activities %q and %q share exchange sizes", dev.Name, act.Name, other)
			}
			seen[sig] = act.Name
		}
	}
}

func TestMergePackets(t *testing.T) {
	tb := New()
	g := NewGenerator(tb, 1)
	from := time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(time.Hour)
	a := g.PeriodicWindow(tb.Device("TPLink Plug"), from, to)
	b := g.PeriodicWindow(tb.Device("Wemo Plug"), from, to)
	merged := MergePackets(a, b)
	if len(merged) != len(a)+len(b) {
		t.Fatalf("merged = %d, want %d", len(merged), len(a)+len(b))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Timestamp.Before(merged[i-1].Timestamp) {
			t.Fatal("merged stream not sorted")
		}
	}
}

func BenchmarkPeriodicWindowDay(b *testing.B) {
	tb := New()
	g := NewGenerator(tb, 1)
	dev := tb.Device("Echo Show5")
	from := time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC)
	to := from.Add(24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PeriodicWindow(dev, from, to)
	}
}
