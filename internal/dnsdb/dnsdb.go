// Package dnsdb maintains the IP→domain mapping BehavIoT uses to annotate
// flows with destination domain names (paper §4.1). Names come from three
// sources, in decreasing priority: DNS responses observed in the capture,
// TLS SNI fields observed in the capture, and a reverse-DNS fallback table
// (the paper uses live reverse lookups [9]; offline we consult a static
// table the simulator registers). If none yields a name the domain is left
// blank, exactly as in the paper.
package dnsdb

import (
	"net/netip"
	"sync"
)

// Source records where a resolution came from.
type Source uint8

// Resolution sources in priority order (higher wins).
const (
	SourceNone Source = iota
	SourceReverseDNS
	SourceSNI
	SourceDNS
)

// String names the source for diagnostics.
func (s Source) String() string {
	switch s {
	case SourceDNS:
		return "dns"
	case SourceSNI:
		return "sni"
	case SourceReverseDNS:
		return "rdns"
	default:
		return "none"
	}
}

type entry struct {
	domain string
	source Source
}

// DB is a concurrency-safe IP→domain database. The zero value is ready to
// use.
type DB struct {
	mu      sync.RWMutex // guards entries, reverse
	entries map[netip.Addr]entry
	reverse map[netip.Addr]string // static reverse-DNS fallback
}

// AddDNS records a domain learned from a DNS answer for ip.
func (d *DB) AddDNS(ip netip.Addr, domain string) { d.add(ip, domain, SourceDNS) }

// AddSNI records a domain learned from a TLS ClientHello SNI for ip.
func (d *DB) AddSNI(ip netip.Addr, domain string) { d.add(ip, domain, SourceSNI) }

// AddReverse registers a static reverse-DNS fallback entry. Fallback
// entries never override observed DNS or SNI names.
func (d *DB) AddReverse(ip netip.Addr, domain string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.reverse == nil {
		d.reverse = make(map[netip.Addr]string)
	}
	d.reverse[ip] = domain
}

func (d *DB) add(ip netip.Addr, domain string, src Source) {
	if domain == "" || !ip.IsValid() {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.entries == nil {
		d.entries = make(map[netip.Addr]entry)
	}
	if cur, ok := d.entries[ip]; ok && cur.source > src {
		return // a higher-priority source already named this IP
	}
	d.entries[ip] = entry{domain: domain, source: src}
}

// Lookup resolves ip to a domain name, returning the empty string when no
// source knows it (the paper leaves the domain blank in that case).
func (d *DB) Lookup(ip netip.Addr) string {
	name, _ := d.LookupSource(ip)
	return name
}

// LookupSource resolves ip and reports which source provided the name.
func (d *DB) LookupSource(ip netip.Addr) (string, Source) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if e, ok := d.entries[ip]; ok {
		return e.domain, e.source
	}
	if name, ok := d.reverse[ip]; ok {
		return name, SourceReverseDNS
	}
	return "", SourceNone
}

// Len returns the number of observed (non-fallback) entries.
func (d *DB) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}
