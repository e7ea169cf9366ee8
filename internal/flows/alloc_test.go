package flows

import (
	"net/netip"
	"testing"
	"time"

	"behaviot/internal/netparse"
)

// TestAssembleSteadyStateDoesNotAllocate pins the zero-alloc contract
// of the recycled assembly path: once a burst's Flow (and its Packets
// capacity) has been through one warm burst and recycled, feeding
// packets within a burst — including the gated FlushClosed call the
// monitor makes per packet — performs no heap allocation. Strict zero
// holds only within a burst: closing a burst hands out a fresh result
// slice, which amortizes to 0 allocs/op per packet but is not
// per-packet-free.
func TestAssembleSteadyStateDoesNotAllocate(t *testing.T) {
	const runs = 900
	a := NewAssembler(Config{
		DeviceByIP: map[netip.Addr]string{
			netip.MustParseAddr("192.168.1.10"): "plug",
		},
	})
	mk := func(ts time.Time) *netparse.Packet {
		return &netparse.Packet{
			Timestamp: ts,
			SrcIP:     netip.MustParseAddr("192.168.1.10"),
			DstIP:     netip.MustParseAddr("93.184.216.34"),
			SrcPort:   40123, DstPort: 443,
			Proto:   netparse.ProtoTCP,
			WireLen: 120,
		}
	}

	// Warm burst: grow the Packets capacity past what the timed burst
	// needs, close it, and recycle the storage onto the freelist.
	base := time.Unix(1700000000, 0)
	for i := 0; i < runs+100; i++ {
		a.Add(mk(base.Add(time.Duration(i) * time.Millisecond)))
	}
	warm := a.FlushClosed(base.Add(time.Hour))
	if len(warm) != 1 {
		t.Fatalf("warm flush returned %d flows, want 1", len(warm))
	}
	for _, f := range warm {
		a.Recycle(f)
	}

	// Timed burst: packets 1 ms apart (one burst; AllocsPerRun adds a
	// warm-up call, which absorbs the map re-insert for the new burst).
	// One Packet is reused across runs — as on the ingest path —
	// so the closure itself performs no allocation.
	base = base.Add(10 * time.Hour)
	p := mk(base)
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		p.Timestamp = base.Add(time.Duration(i) * time.Millisecond)
		i++
		a.Add(p)
		if out := a.FlushClosed(p.Timestamp); len(out) != 0 {
			t.Fatalf("burst closed mid-stream at packet %d", i)
		}
	})
	if avg != 0 {
		t.Errorf("within-burst Add+FlushClosed allocates %v allocs/op, want 0", avg)
	}
}

// TestRecycleReuse pins that Recycle actually feeds storage back to the
// next burst rather than just dropping it.
func TestRecycleReuse(t *testing.T) {
	a := NewAssembler(Config{
		DeviceByIP: map[netip.Addr]string{
			netip.MustParseAddr("192.168.1.10"): "plug",
		},
	})
	p := &netparse.Packet{
		Timestamp: time.Unix(1700000000, 0),
		SrcIP:     netip.MustParseAddr("192.168.1.10"),
		DstIP:     netip.MustParseAddr("1.2.3.4"),
		SrcPort:   1000, DstPort: 443,
		Proto:   netparse.ProtoTCP,
		WireLen: 60,
	}
	a.Add(p)
	out := a.Flows()
	if len(out) != 1 {
		t.Fatalf("got %d flows, want 1", len(out))
	}
	f := out[0]
	a.Recycle(f)
	if f.Device != "" || len(f.Packets) != 0 {
		t.Error("Recycle did not reset the flow")
	}
	q := *p
	q.Timestamp = q.Timestamp.Add(time.Hour)
	a.Add(&q)
	out = a.Flows()
	if len(out) != 1 || out[0] != f {
		t.Error("next burst did not reuse the recycled Flow struct")
	}
}
