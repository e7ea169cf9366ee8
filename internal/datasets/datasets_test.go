package datasets

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"behaviot/internal/flows"
	"behaviot/internal/netparse"
	"behaviot/internal/pcapio"
	"behaviot/internal/testbed"
)

func TestIdleDataset(t *testing.T) {
	tb := testbed.New()
	dev := tb.Device("TPLink Plug")
	fs := Idle(tb, 1, DefaultStart, 1, []*testbed.DeviceProfile{dev}, 0)
	if len(fs) == 0 {
		t.Fatal("no flows")
	}
	// All flows belong to the device and are annotated with domains.
	annotated := 0
	for _, f := range fs {
		if f.Device != "TPLink Plug" {
			t.Fatalf("foreign flow for %q", f.Device)
		}
		if f.Domain != "" {
			annotated++
		}
	}
	if frac := float64(annotated) / float64(len(fs)); frac < 0.95 {
		t.Errorf("only %.0f%% of flows annotated with domains", frac*100)
	}
	// Expected groups present: TCP heartbeat, DNS, NTP.
	groups := flows.GroupByKey(fs)
	protos := map[string]bool{}
	for k := range groups {
		protos[k.Proto] = true
	}
	for _, want := range []string{"TCP", "DNS", "NTP"} {
		if !protos[want] {
			t.Errorf("missing %s traffic group", want)
		}
	}
}

func TestIdleDeterministic(t *testing.T) {
	tb := testbed.New()
	dev := tb.Device("Wemo Plug")
	a := Idle(tb, 7, DefaultStart, 1, []*testbed.DeviceProfile{dev}, 0)
	b := Idle(tb, 7, DefaultStart, 1, []*testbed.DeviceProfile{dev}, 0)
	if len(a) != len(b) {
		t.Fatalf("flow counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Start.Equal(b[i].Start) || a[i].Bytes() != b[i].Bytes() {
			t.Fatalf("flow %d differs", i)
		}
	}
}

func TestActivityDatasetGroundTruth(t *testing.T) {
	tb := testbed.New()
	samples := Activity(tb, 1, 3, 0)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	perLabel := map[string]int{}
	for _, s := range samples {
		if len(s.Flows) == 0 {
			t.Errorf("%s rep has no flows", s.Label)
		}
		perLabel[s.Label]++
		for _, f := range s.Flows {
			if f.Device != s.Device {
				t.Errorf("%s: flow from %q", s.Label, f.Device)
			}
		}
	}
	for label, n := range perLabel {
		if n != 3 {
			t.Errorf("%s has %d reps, want 3", label, n)
		}
	}
	labeled := LabeledFlows(samples)
	if len(labeled) != len(perLabel) {
		t.Errorf("LabeledFlows lost labels")
	}
	// The 30-device activity dataset: every activity device contributes.
	devices := map[string]bool{}
	for _, s := range samples {
		devices[s.Device] = true
	}
	if len(devices) != len(tb.ActivityDevices()) {
		t.Errorf("devices in samples = %d, want %d", len(devices), len(tb.ActivityDevices()))
	}
}

func TestRoutineDataset(t *testing.T) {
	tb := testbed.New()
	ds := Routine(tb, 1, DefaultStart, RoutineConfig{Days: 1, RunsPerDay: 10, DirectPerDay: 2})
	if len(ds.Flows) == 0 || len(ds.Executions) == 0 {
		t.Fatal("empty routine dataset")
	}
	if len(ds.Executions) != 12 {
		t.Errorf("executions = %d, want 12", len(ds.Executions))
	}
	// Ground-truth traces map to the executions.
	gt := ds.GroundTruthTraces()
	if len(gt) != len(ds.Executions) {
		t.Fatalf("traces = %d", len(gt))
	}
	// Executions ordered and within the window.
	for _, e := range ds.Executions {
		for _, s := range e.Steps {
			if s.Time.Before(ds.Start) || !s.Time.Before(ds.End) {
				t.Errorf("step at %v outside window", s.Time)
			}
			if tb.Device(s.Device) == nil {
				t.Errorf("unknown device %q", s.Device)
			}
		}
	}
	// Steps inside one execution stay within the 1-minute trace gap.
	for _, e := range ds.Executions {
		for i := 1; i < len(e.Steps); i++ {
			if gap := e.Steps[i].Time.Sub(e.Steps[i-1].Time); gap > time.Minute {
				t.Errorf("%s: step gap %v exceeds trace gap", e.AutomationID, gap)
			}
		}
	}
}

func TestRoutineExecutionsSpaced(t *testing.T) {
	tb := testbed.New()
	ds := Routine(tb, 2, DefaultStart, RoutineConfig{Days: 1, RunsPerDay: 20, DirectPerDay: 5})
	// Execution start times must be >= 2 min apart so traces separate.
	var starts []time.Time
	for _, e := range ds.Executions {
		starts = append(starts, e.Steps[0].Time)
	}
	for i := 1; i < len(starts); i++ {
		if gap := starts[i].Sub(starts[i-1]); gap < 2*time.Minute {
			t.Errorf("executions %d,%d only %v apart", i-1, i, gap)
		}
	}
}

func TestUncontrolledDayBasics(t *testing.T) {
	tb := testbed.New()
	cfg := UncontrolledConfig{Days: 87, Seed: 1}
	fs := UncontrolledDay(tb, cfg, nil, 0)
	if len(fs) == 0 {
		t.Fatal("no flows")
	}
	devices := map[string]bool{}
	for _, f := range fs {
		devices[f.Device] = true
	}
	// Two devices are offline for the whole study.
	if devices["Wink Hub2"] || devices["LeFun Camera"] {
		t.Error("offline devices still present")
	}
	if len(devices) < 40 {
		t.Errorf("active devices = %d, want ~47", len(devices))
	}
}

func TestUncontrolledOutageRemovesTraffic(t *testing.T) {
	tb := testbed.New()
	cfg := UncontrolledConfig{Days: 87, Seed: 1}
	outage := []Incident{{Kind: IncidentNetworkOutage, Day: 2, StartHour: 8, EndHour: 20}}
	normal := UncontrolledDay(tb, cfg, nil, 2)
	broken := UncontrolledDay(tb, cfg, outage, 2)
	if len(broken) >= len(normal) {
		t.Errorf("outage day has %d flows vs %d normal", len(broken), len(normal))
	}
	// No flow starts inside the outage window.
	dayStart := UncontrolledStart.Add(2 * 24 * time.Hour)
	from := dayStart.Add(8 * time.Hour)
	to := dayStart.Add(20 * time.Hour)
	for _, f := range broken {
		if !f.Start.Before(from) && f.Start.Before(to) {
			t.Fatalf("flow at %v inside outage window", f.Start)
		}
	}
}

func TestUncontrolledMalfunctionOnlyAffectsDevice(t *testing.T) {
	tb := testbed.New()
	cfg := UncontrolledConfig{Days: 87, Seed: 1}
	inc := []Incident{{
		Kind: IncidentDeviceMalfunction, Day: 1,
		Devices: []string{"SwitchBot Hub"}, StartHour: 0, EndHour: 24,
	}}
	fs := UncontrolledDay(tb, cfg, inc, 1)
	others := 0
	for _, f := range fs {
		if f.Device == "SwitchBot Hub" {
			t.Fatalf("SwitchBot Hub flow at %v during all-day malfunction", f.Start)
		}
		others++
	}
	if others == 0 {
		t.Error("malfunction should not silence other devices")
	}
}

func TestUncontrolledStormAddsVoiceEvents(t *testing.T) {
	tb := testbed.New()
	cfg := UncontrolledConfig{Days: 87, Seed: 1}
	storm := []Incident{{
		Kind: IncidentMisactivationStorm, Day: 12,
		Devices: []string{"Echo Spot"}, StartHour: 14, EndHour: 14.5,
	}}
	normal := UncontrolledDay(tb, cfg, nil, 12)
	stormy := UncontrolledDay(tb, cfg, storm, 12)
	countVoice := func(fs []*flows.Flow) int {
		n := 0
		for _, f := range fs {
			if f.Device == "Echo Spot" && f.Proto == "TCP" {
				n++
			}
		}
		return n
	}
	if countVoice(stormy) < countVoice(normal)+40 {
		t.Errorf("storm day Echo Spot TCP flows = %d vs %d normal", countVoice(stormy), countVoice(normal))
	}
}

func TestDefaultIncidentsShape(t *testing.T) {
	cfg := UncontrolledConfig{Days: 87, Seed: 1}
	incs := DefaultIncidents(cfg)
	kinds := map[IncidentKind]int{}
	for _, inc := range incs {
		kinds[inc.Kind]++
		if inc.Day < 0 || inc.Day >= 87 {
			t.Errorf("incident day %d out of range", inc.Day)
		}
	}
	if kinds[IncidentRelocation] != 3 {
		t.Errorf("relocations = %d, want 3 (cases 1,4,5)", kinds[IncidentRelocation])
	}
	if kinds[IncidentMisactivationStorm] != 1 || kinds[IncidentDeviceReset] != 1 {
		t.Error("missing storm/reset incidents")
	}
	if kinds[IncidentNetworkOutage] != 3 {
		t.Errorf("outages = %d, want 3 (cases 6-8)", kinds[IncidentNetworkOutage])
	}
	if kinds[IncidentDeviceMalfunction] < 10 {
		t.Errorf("malfunctions = %d, want >= 10 (case 9)", kinds[IncidentDeviceMalfunction])
	}
}

func TestPcapRoundTripPreservesPipelineView(t *testing.T) {
	// The full path: synthesize → encode to pcap → decode → assemble must
	// yield the same flows as assembling the in-memory stream directly.
	tb := testbed.New()
	g := testbed.NewGenerator(tb, 1)
	dev := tb.Device("TPLink Plug")
	from := DefaultStart
	to := from.Add(2 * time.Hour)
	pkts := testbed.MergePackets(
		g.BootstrapDNS(dev, from.Add(-time.Minute)),
		g.PeriodicWindow(dev, from, to),
	)
	direct := Assemble(tb, pkts)

	var buf bytes.Buffer
	if err := WritePcap(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(pkts) {
		t.Fatalf("decoded %d packets, want %d", len(decoded), len(pkts))
	}
	viaPcap := Assemble(tb, decoded)
	if len(viaPcap) != len(direct) {
		t.Fatalf("flows via pcap = %d, direct = %d", len(viaPcap), len(direct))
	}
	for i := range direct {
		a, b := direct[i], viaPcap[i]
		if a.Device != b.Device || a.Domain != b.Domain || a.Proto != b.Proto {
			t.Fatalf("flow %d annotation differs: %+v vs %+v", i, a.Key(), b.Key())
		}
		if a.Bytes() != b.Bytes() || len(a.Packets) != len(b.Packets) {
			t.Fatalf("flow %d sizes differ: %d/%d vs %d/%d bytes/pkts",
				i, a.Bytes(), len(a.Packets), b.Bytes(), len(b.Packets))
		}
		if !a.Start.Equal(b.Start) {
			t.Fatalf("flow %d start differs", i)
		}
	}
}

// TestReadPcapSkipsUndecodableFrames: a frame that does not decode is
// dropped, and the packets around it still come back in order.
func TestReadPcapSkipsUndecodableFrames(t *testing.T) {
	tb := testbed.New()
	dev := tb.Device("TPLink Plug")
	pkts := testbed.NewGenerator(tb, 1).BootstrapDNS(dev, DefaultStart)
	recs, err := EncodePackets(pkts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := pcapio.NewNanoWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if i == 1 {
			if err := w.WritePacket(r.Time, []byte{0xde, 0xad}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WritePacket(r.Time, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := netparse.Decode([]byte{0xde, 0xad}); err == nil {
		t.Fatal("the junk frame decodes; the test needs one that does not")
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatalf("ReadPcap: %v", err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, want the %d that decode", len(got), len(pkts))
	}
	for i, p := range got {
		if !p.Timestamp.Equal(pkts[i].Timestamp) || p.WireLen != len(recs[i].Data) {
			t.Fatalf("packet %d = %v/%d bytes, want %v/%d", i, p.Timestamp, p.WireLen, pkts[i].Timestamp, len(recs[i].Data))
		}
	}
}

// TestLoadDevices pins the device-manifest reader both commands use: the
// first non-blank row is the header wherever it sits, CRLF endings are
// tolerated, a row without a comma is skipped, columns past the name are
// ignored, and a bad address after the header is an error.
func TestLoadDevices(t *testing.T) {
	for _, tc := range []struct {
		name, csv string
		want      map[string]string // ip → device
		wantErr   string
	}{
		{"gendata manifest", "ip,device,vendor,category\n192.168.1.10,TPLink Plug,TP-Link,Home Auto\n192.168.1.11,Echo Spot,Amazon,Smart Speaker\n\n",
			map[string]string{"192.168.1.10": "TPLink Plug", "192.168.1.11": "Echo Spot"}, ""},
		{"plain", "ip,name\n192.168.0.2,plug\n192.168.0.3,bulb\n",
			map[string]string{"192.168.0.2": "plug", "192.168.0.3": "bulb"}, ""},
		{"leading blank line", "\nip,device,vendor,category\n192.168.0.2,plug,TP-Link,Home Auto\n",
			map[string]string{"192.168.0.2": "plug"}, ""},
		{"blank lines throughout", "\n\nip,name\n\n192.168.0.2,plug\n\n",
			map[string]string{"192.168.0.2": "plug"}, ""},
		{"crlf", "ip,name\r\n192.168.0.2,plug\r\n192.168.0.3,bulb\r\n",
			map[string]string{"192.168.0.2": "plug", "192.168.0.3": "bulb"}, ""},
		{"short row", "ip,name\n192.168.0.2\n192.168.0.3,bulb\n",
			map[string]string{"192.168.0.3": "bulb"}, ""},
		{"extra columns", "ip,name,mac,notes\n192.168.0.2,plug,aa:bb,x,y\n",
			map[string]string{"192.168.0.2": "plug"}, ""},
		{"bad ip after header", "ip,name\nnot-an-ip,plug\n", nil, `bad IP "not-an-ip"`},
	} {
		path := filepath.Join(t.TempDir(), "devices.csv")
		if err := os.WriteFile(path, []byte(tc.csv), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadDevices(path)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d devices %v, want %v", tc.name, len(got), got, tc.want)
		}
		for ip, name := range tc.want {
			if got[netip.MustParseAddr(ip)] != name {
				t.Errorf("%s: %s = %q, want %q", tc.name, ip, got[netip.MustParseAddr(ip)], name)
			}
		}
	}
	if _, err := LoadDevices(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("a missing manifest loaded without error")
	}
}

func BenchmarkIdleDayOneDevice(b *testing.B) {
	tb := testbed.New()
	dev := tb.Device("Echo Show5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Idle(tb, 1, DefaultStart, 1, []*testbed.DeviceProfile{dev}, 0)
	}
}

func BenchmarkUncontrolledDay(b *testing.B) {
	tb := testbed.New()
	cfg := UncontrolledConfig{Days: 87, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UncontrolledDay(tb, cfg, nil, i%87)
	}
}
