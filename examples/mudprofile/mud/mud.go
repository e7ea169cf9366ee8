// Package mud generates Manufacturer Usage Description profiles
// (RFC 8520) from learned BehavIoT behavior models, and verifies traffic
// against them — the paper's §7.2 "Informing IoT profiles" application.
// No device in the paper's testbed shipped a MUD profile four years after
// standardization; BehavIoT's models contain exactly the information a
// MUD profile needs (permitted destinations and protocols), plus
// behavioral periods MUD itself cannot express, which are emitted as an
// extension.
//
// The document structure follows RFC 8520's YANG-modeled JSON: an
// "ietf-mud:mud" container holding metadata and pointers into
// "ietf-access-control-list:acls" with one ACE per permitted flow.
package mud

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/flows"
)

// Profile is an RFC 8520 MUD document (the subset relevant to
// destination/protocol allowlists) plus the BehavIoT behavioral extension.
type Profile struct {
	MUD  Document `json:"ietf-mud:mud"`
	ACLs ACLSet   `json:"ietf-access-control-list:acls"`
}

// Document is the ietf-mud:mud container.
type Document struct {
	MUDVersion    int       `json:"mud-version"`
	MUDURL        string    `json:"mud-url"`
	LastUpdate    string    `json:"last-update"`
	CacheValidity int       `json:"cache-validity"`
	IsSupported   bool      `json:"is-supported"`
	SystemInfo    string    `json:"systeminfo"`
	FromDevice    PolicyRef `json:"from-device-policy"`
	ToDevice      PolicyRef `json:"to-device-policy"`
	// Extensions lists the non-standard extensions used; BehavIoT adds
	// "behaviot-periodicity".
	Extensions []string `json:"extensions,omitempty"`
}

// PolicyRef points at the ACLs applying in one direction.
type PolicyRef struct {
	AccessLists AccessLists `json:"access-lists"`
}

// AccessLists is the RFC's list-of-name-objects shape.
type AccessLists struct {
	AccessList []NameRef `json:"access-list"`
}

// NameRef names one ACL.
type NameRef struct {
	Name string `json:"name"`
}

// ACLSet is the ietf-access-control-list:acls container.
type ACLSet struct {
	ACL []ACL `json:"acl"`
}

// ACL is one access control list.
type ACL struct {
	Name string  `json:"name"`
	Type string  `json:"type"`
	ACEs ACEList `json:"aces"`
}

// ACEList wraps the ACE array per the YANG model.
type ACEList struct {
	ACE []ACE `json:"ace"`
}

// ACE is one access control entry.
type ACE struct {
	Name    string  `json:"name"`
	Matches Matches `json:"matches"`
	Actions Actions `json:"actions"`
	// Periodicity is the BehavIoT extension: the modeled period of this
	// flow in seconds (0 for user-action flows).
	Periodicity float64 `json:"behaviot-periodicity:period-seconds,omitempty"`
}

// Matches holds the ACE match criteria.
type Matches struct {
	IPv4 *IPv4Match `json:"ipv4,omitempty"`
	TCP  *PortMatch `json:"tcp,omitempty"`
	UDP  *PortMatch `json:"udp,omitempty"`
}

// IPv4Match matches the destination DNS name (RFC 8520 §8).
type IPv4Match struct {
	DstDNSName string `json:"ietf-acldns:dst-dnsname,omitempty"`
	Protocol   int    `json:"protocol,omitempty"`
}

// PortMatch matches the destination port.
type PortMatch struct {
	DstPort *PortOp `json:"destination-port,omitempty"`
}

// PortOp is the RFC's operator/port pair.
type PortOp struct {
	Operator string `json:"operator"`
	Port     uint16 `json:"port"`
}

// Actions is the ACE forwarding decision.
type Actions struct {
	Forwarding string `json:"forwarding"`
}

// FromModels builds a device's MUD profile from its trained periodic
// models and the destinations of its labeled user-action flows. now is
// stamped as last-update.
func FromModels(device, systemInfo string, models map[flows.GroupKey]*core.PeriodicModel, userFlows []*flows.Flow, now time.Time) *Profile {
	aclName := sanitize(device) + "-from-device"
	p := &Profile{
		MUD: Document{
			MUDVersion:    1,
			MUDURL:        fmt.Sprintf("https://behaviot.invalid/mud/%s.json", sanitize(device)),
			LastUpdate:    now.UTC().Format(time.RFC3339),
			CacheValidity: 48,
			IsSupported:   true,
			SystemInfo:    systemInfo,
			FromDevice:    PolicyRef{AccessLists: AccessLists{AccessList: []NameRef{{Name: aclName}}}},
			ToDevice:      PolicyRef{AccessLists: AccessLists{AccessList: []NameRef{{Name: aclName}}}},
			Extensions:    []string{"behaviot-periodicity"},
		},
	}
	acl := ACL{Name: aclName, Type: "ipv4-acl-type"}

	type entry struct {
		domain, proto string
		port          uint16
		period        float64
	}
	var entries []entry
	seen := map[string]bool{}
	for key, m := range models {
		if key.Device != device {
			continue
		}
		k := key.Domain + "|" + key.Proto
		if seen[k] {
			continue
		}
		seen[k] = true
		entries = append(entries, entry{
			domain: key.Domain, proto: key.Proto,
			port: wellKnownPort(key.Proto), period: m.Period,
		})
	}
	for _, f := range userFlows {
		if f.Device != device || f.Domain == "" {
			continue
		}
		k := f.Domain + "|" + f.Proto
		if seen[k] {
			continue
		}
		seen[k] = true
		entries = append(entries, entry{domain: f.Domain, proto: f.Proto, port: f.Tuple.DstPort})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].domain != entries[j].domain {
			return entries[i].domain < entries[j].domain
		}
		return entries[i].proto < entries[j].proto
	})
	for i, e := range entries {
		ace := ACE{
			Name:        fmt.Sprintf("ace-%d-%s", i, sanitize(e.domain)),
			Matches:     matchesFor(e.domain, e.proto, e.port),
			Actions:     Actions{Forwarding: "accept"},
			Periodicity: e.period,
		}
		acl.ACEs.ACE = append(acl.ACEs.ACE, ace)
	}
	p.ACLs.ACL = append(p.ACLs.ACL, acl)
	return p
}

// matchesFor builds the match clause for a protocol label.
func matchesFor(domain, proto string, port uint16) Matches {
	m := Matches{IPv4: &IPv4Match{DstDNSName: domain}}
	switch proto {
	case "TCP":
		m.IPv4.Protocol = 6
		if port != 0 {
			m.TCP = &PortMatch{DstPort: &PortOp{Operator: "eq", Port: port}}
		}
	case "UDP", "DNS", "NTP":
		m.IPv4.Protocol = 17
		if port != 0 {
			m.UDP = &PortMatch{DstPort: &PortOp{Operator: "eq", Port: port}}
		}
	}
	return m
}

func wellKnownPort(proto string) uint16 {
	switch proto {
	case "DNS":
		return 53
	case "NTP":
		return 123
	case "TCP":
		return 443
	default:
		return 0
	}
}

func sanitize(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	return b.String()
}

// JSON renders the profile as indented RFC 8520 JSON.
func (p *Profile) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Verdict is a compliance-check outcome for one flow.
type Verdict struct {
	Flow      *flows.Flow
	Compliant bool
	// Reason explains a non-compliant verdict.
	Reason string
}

// Check verifies flows against the profile: a flow complies when some ACE
// accepts its destination domain and transport protocol. This is the
// paper's proposed MUD-compliance validation of observed traffic.
func (p *Profile) Check(fs []*flows.Flow) []Verdict {
	type allow struct {
		domain  string
		ipProto int
	}
	allowed := map[allow]bool{}
	for _, acl := range p.ACLs.ACL {
		for _, ace := range acl.ACEs.ACE {
			if ace.Actions.Forwarding != "accept" || ace.Matches.IPv4 == nil {
				continue
			}
			allowed[allow{ace.Matches.IPv4.DstDNSName, ace.Matches.IPv4.Protocol}] = true
		}
	}
	out := make([]Verdict, len(fs))
	for i, f := range fs {
		ipProto := 6
		if f.Proto != "TCP" {
			ipProto = 17
		}
		v := Verdict{Flow: f, Compliant: true}
		switch {
		case f.Domain == "":
			v.Compliant = false
			v.Reason = "destination has no DNS name"
		case !allowed[allow{f.Domain, ipProto}]:
			v.Compliant = false
			v.Reason = fmt.Sprintf("no ACE accepts %s over %s", f.Domain, f.Proto)
		}
		out[i] = v
	}
	return out
}

// NonCompliant filters the non-compliant verdicts.
func NonCompliant(vs []Verdict) []Verdict {
	var out []Verdict
	for _, v := range vs {
		if !v.Compliant {
			out = append(out, v)
		}
	}
	return out
}
