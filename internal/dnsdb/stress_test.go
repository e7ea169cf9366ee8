package dnsdb

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"behaviot/internal/snapio"
)

// TestConcurrentReadersWriters hammers one DB from parallel writers on
// all three sources and parallel readers on every query method. It
// exists for `go test -race`: the assertions are loose on purpose; the
// race detector is the oracle for the mu lock discipline.
func TestConcurrentReadersWriters(t *testing.T) {
	const (
		writers = 8
		readers = 8
		rounds  = 500
	)
	var db DB
	addr := func(w, i int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(w), byte(i >> 8), byte(i)})
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ip := addr(w, i)
				switch i % 3 {
				case 0:
					db.AddDNS(ip, fmt.Sprintf("dns-%d-%d.example", w, i))
				case 1:
					db.AddSNI(ip, fmt.Sprintf("sni-%d-%d.example", w, i))
				default:
					db.AddReverse(ip, fmt.Sprintf("rdns-%d-%d.example", w, i))
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ip := addr(r%writers, i)
				db.Lookup(ip)
				if _, src := db.LookupSource(ip); src > SourceDNS {
					t.Errorf("impossible source %v", src)
				}
				if db.Len() < 0 {
					t.Error("negative length")
				}
				if i%100 == 0 {
					// full-table scan while writers run, as a checkpoint does
					db.EncodeSnapshot(new(snapio.Writer))
				}
			}
		}(r)
	}
	wg.Wait()

	// After the dust settles the DNS/SNI writes must all be visible.
	want := fmt.Sprintf("dns-%d-%d.example", 0, 0)
	if got := db.Lookup(addr(0, 0)); got != want {
		t.Errorf("Lookup after stress = %q, want %q", got, want)
	}
}

// TestConcurrentPriorityUpgrade checks that racing sources still respect
// source priority: once a DNS name lands, SNI and reverse entries for
// the same IP must never replace it.
func TestConcurrentPriorityUpgrade(t *testing.T) {
	const rounds = 200
	ip := netip.MustParseAddr("10.9.9.9")
	for i := 0; i < rounds; i++ {
		var db DB
		var wg sync.WaitGroup
		for _, add := range []func(){
			func() { db.AddDNS(ip, "dns.example") },
			func() { db.AddSNI(ip, "sni.example") },
			func() { db.AddReverse(ip, "rdns.example") },
		} {
			wg.Add(1)
			go func(add func()) { defer wg.Done(); add() }(add)
		}
		wg.Wait()
		if name, src := db.LookupSource(ip); name != "dns.example" || src != SourceDNS {
			t.Fatalf("round %d: got (%q, %v), want (dns.example, dns)", i, name, src)
		}
	}
}
