package mud

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/flows"
	"behaviot/internal/netparse"
)

func testModels() map[flows.GroupKey]*core.PeriodicModel {
	mk := func(device, domain, proto string, period float64) (flows.GroupKey, *core.PeriodicModel) {
		k := flows.GroupKey{Device: device, Domain: domain, Proto: proto}
		return k, &core.PeriodicModel{Key: k, Period: period}
	}
	out := map[flows.GroupKey]*core.PeriodicModel{}
	for _, spec := range []struct {
		device, domain, proto string
		period                float64
	}{
		{"TPLink Plug", "devs.tplinkcloud.com", "TCP", 236},
		{"TPLink Plug", "dns1.testbed.neu.edu", "DNS", 3603},
		{"TPLink Plug", "0.pool.ntp.org", "NTP", 3603},
		{"Other Device", "other.example.com", "TCP", 60},
	} {
		k, m := mk(spec.device, spec.domain, spec.proto, spec.period)
		out[k] = m
	}
	return out
}

func userFlow(device, domain string, port uint16) *flows.Flow {
	return &flows.Flow{
		Device: device, Domain: domain, Proto: "TCP",
		Tuple: netparse.FiveTuple{DstPort: port, Proto: netparse.ProtoTCP},
	}
}

func TestFromModelsStructure(t *testing.T) {
	now := time.Date(2021, 10, 1, 0, 0, 0, 0, time.UTC)
	p := FromModels("TPLink Plug", "TP-Link smart plug", testModels(),
		[]*flows.Flow{userFlow("TPLink Plug", "api.tplinkra.com", 443)}, now)

	if p.MUD.MUDVersion != 1 {
		t.Error("mud-version missing")
	}
	if !strings.Contains(p.MUD.MUDURL, "tplink-plug") {
		t.Errorf("mud-url = %q", p.MUD.MUDURL)
	}
	if len(p.ACLs.ACL) != 1 {
		t.Fatalf("ACLs = %d", len(p.ACLs.ACL))
	}
	aces := p.ACLs.ACL[0].ACEs.ACE
	// 3 periodic models for this device + 1 user destination; the other
	// device's model is excluded.
	if len(aces) != 4 {
		t.Fatalf("ACEs = %d, want 4", len(aces))
	}
	domains := map[string]float64{}
	for _, ace := range aces {
		domains[ace.Matches.IPv4.DstDNSName] = ace.Periodicity
	}
	if _, ok := domains["other.example.com"]; ok {
		t.Error("foreign device's model leaked into profile")
	}
	if domains["devs.tplinkcloud.com"] != 236 {
		t.Errorf("periodicity extension = %v", domains["devs.tplinkcloud.com"])
	}
	if domains["api.tplinkra.com"] != 0 {
		t.Error("user-action ACE should have no periodicity")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	now := time.Unix(1700000000, 0)
	p := FromModels("TPLink Plug", "plug", testModels(), nil, now)
	data, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Standard MUD consumers look for these container names.
	for _, want := range []string{"ietf-mud:mud", "ietf-access-control-list:acls", "ietf-acldns:dst-dnsname"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %q", want)
		}
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.MUD.MUDVersion != p.MUD.MUDVersion {
		t.Errorf("mud-version = %d through round trip, want %d", back.MUD.MUDVersion, p.MUD.MUDVersion)
	}
	if len(back.ACLs.ACL[0].ACEs.ACE) != len(p.ACLs.ACL[0].ACEs.ACE) {
		t.Error("ACE count changed through round trip")
	}
}

func TestCheckCompliance(t *testing.T) {
	now := time.Unix(1700000000, 0)
	p := FromModels("TPLink Plug", "plug", testModels(), nil, now)
	fs := []*flows.Flow{
		{Device: "TPLink Plug", Domain: "devs.tplinkcloud.com", Proto: "TCP"},
		{Device: "TPLink Plug", Domain: "dns1.testbed.neu.edu", Proto: "DNS"},
		{Device: "TPLink Plug", Domain: "exfil.shady.example", Proto: "TCP"},
		{Device: "TPLink Plug", Domain: "", Proto: "TCP"},
		// Right domain, wrong transport: TCP ACE does not cover UDP.
		{Device: "TPLink Plug", Domain: "devs.tplinkcloud.com", Proto: "UDP"},
	}
	vs := p.Check(fs)
	wantCompliant := []bool{true, true, false, false, false}
	for i, v := range vs {
		if v.Compliant != wantCompliant[i] {
			t.Errorf("flow %d compliant = %v (%s), want %v", i, v.Compliant, v.Reason, wantCompliant[i])
		}
	}
	nc := NonCompliant(vs)
	if len(nc) != 3 {
		t.Errorf("non-compliant = %d", len(nc))
	}
	for _, v := range nc {
		if v.Reason == "" {
			t.Error("non-compliant verdict without reason")
		}
	}
}

func TestACEPortMatches(t *testing.T) {
	now := time.Unix(1700000000, 0)
	p := FromModels("TPLink Plug", "plug", testModels(), nil, now)
	var dnsACE, tcpACE *ACE
	for i := range p.ACLs.ACL[0].ACEs.ACE {
		ace := &p.ACLs.ACL[0].ACEs.ACE[i]
		switch ace.Matches.IPv4.DstDNSName {
		case "dns1.testbed.neu.edu":
			dnsACE = ace
		case "devs.tplinkcloud.com":
			tcpACE = ace
		}
	}
	if dnsACE == nil || dnsACE.Matches.UDP == nil || dnsACE.Matches.UDP.DstPort.Port != 53 {
		t.Errorf("DNS ACE = %+v", dnsACE)
	}
	if dnsACE.Matches.IPv4.Protocol != 17 {
		t.Error("DNS ACE should match IP protocol 17")
	}
	if tcpACE == nil || tcpACE.Matches.TCP == nil || tcpACE.Matches.TCP.DstPort.Port != 443 {
		t.Errorf("TCP ACE = %+v", tcpACE)
	}
}

func TestJSONShapeMatchesRFCNaming(t *testing.T) {
	// Spot-check the exact key layout RFC 8520 consumers expect.
	now := time.Unix(1700000000, 0)
	p := FromModels("X", "x", map[flows.GroupKey]*core.PeriodicModel{}, nil, now)
	data, _ := p.JSON()
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["ietf-mud:mud"]; !ok {
		t.Error("top-level ietf-mud:mud missing")
	}
	if _, ok := raw["ietf-access-control-list:acls"]; !ok {
		t.Error("top-level acls missing")
	}
}
