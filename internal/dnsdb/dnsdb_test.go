package dnsdb

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
)

var (
	ip1 = netip.MustParseAddr("52.94.233.129")
	ip2 = netip.MustParseAddr("142.250.80.46")
	ip3 = netip.MustParseAddr("10.0.0.5")
)

func TestLookupPriority(t *testing.T) {
	var db DB
	db.AddReverse(ip1, "ec2-52.compute.amazonaws.com")
	if got := db.Lookup(ip1); got != "ec2-52.compute.amazonaws.com" {
		t.Errorf("reverse fallback = %q", got)
	}
	db.AddSNI(ip1, "iot.us-east-1.amazonaws.com")
	if got := db.Lookup(ip1); got != "iot.us-east-1.amazonaws.com" {
		t.Errorf("SNI should override reverse: %q", got)
	}
	db.AddDNS(ip1, "device-metrics-us.amazon.com")
	if got := db.Lookup(ip1); got != "device-metrics-us.amazon.com" {
		t.Errorf("DNS should override SNI: %q", got)
	}
	// Lower-priority updates must not clobber higher-priority entries.
	db.AddSNI(ip1, "other.example.com")
	if got := db.Lookup(ip1); got != "device-metrics-us.amazon.com" {
		t.Errorf("SNI overrode DNS: %q", got)
	}
}

func TestLookupUnknownIsBlank(t *testing.T) {
	var db DB
	if got := db.Lookup(ip2); got != "" {
		t.Errorf("unknown IP = %q, want blank", got)
	}
	name, src := db.LookupSource(ip2)
	if name != "" || src != SourceNone {
		t.Errorf("LookupSource = %q, %v", name, src)
	}
}

func TestLookupSource(t *testing.T) {
	var db DB
	db.AddDNS(ip1, "a.example.com")
	db.AddSNI(ip2, "b.example.com")
	db.AddReverse(ip3, "c.example.com")
	cases := []struct {
		ip   netip.Addr
		name string
		src  Source
	}{
		{ip1, "a.example.com", SourceDNS},
		{ip2, "b.example.com", SourceSNI},
		{ip3, "c.example.com", SourceReverseDNS},
	}
	for _, c := range cases {
		name, src := db.LookupSource(c.ip)
		if name != c.name || src != c.src {
			t.Errorf("LookupSource(%v) = %q, %v; want %q, %v", c.ip, name, src, c.name, c.src)
		}
	}
}

func TestEmptyAndInvalidIgnored(t *testing.T) {
	var db DB
	db.AddDNS(ip1, "")
	db.AddDNS(netip.Addr{}, "x.example.com")
	if db.Len() != 0 {
		t.Errorf("Len = %d, want 0", db.Len())
	}
}

func TestDomains(t *testing.T) {
	var db DB
	db.AddDNS(ip1, "b.example.com")
	db.AddSNI(ip2, "a.example.com")
	db.AddReverse(ip3, "c.example.com")
	// Every source's name is what the flow annotator's Lookup sees.
	for ip, want := range map[netip.Addr]string{ip1: "b.example.com", ip2: "a.example.com", ip3: "c.example.com"} {
		if got := db.Lookup(ip); got != want {
			t.Errorf("Lookup(%v) = %q, want %q", ip, got, want)
		}
	}
}

func TestSourceString(t *testing.T) {
	for src, want := range map[Source]string{
		SourceDNS: "dns", SourceSNI: "sni", SourceReverseDNS: "rdns", SourceNone: "none",
	} {
		if src.String() != want {
			t.Errorf("%d.String() = %q, want %q", src, src.String(), want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	var db DB
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ip := netip.AddrFrom4([4]byte{10, 0, byte(i), byte(j)})
				db.AddDNS(ip, fmt.Sprintf("host-%d-%d.example.com", i, j))
				db.Lookup(ip)
				db.AddSNI(ip, "sni.example.com")
			}
		}(i)
	}
	wg.Wait()
	if db.Len() != 8*200 {
		t.Errorf("Len = %d, want 1600", db.Len())
	}
}
