package stream

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"behaviot/internal/netparse"
)

// TestQueueDeliversInOrder verifies the single-consumer queue preserves
// arrival order from one producer and drains fully on Close.
func TestQueueDeliversInOrder(t *testing.T) {
	var got []uint16
	q := NewBatchQueue(8, 3, func(ps []*netparse.Packet) {
		for _, p := range ps {
			got = append(got, p.SrcPort)
		}
	})
	const n = 100
	for i := 0; i < n; i++ {
		q.Feed(&netparse.Packet{SrcPort: uint16(i)})
	}
	q.Close()
	if len(got) != n {
		t.Fatalf("sink saw %d packets, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint16(i) {
			t.Fatalf("packet %d out of order: got port %d", i, v)
		}
	}
}

// TestQueueCloseRace hammers Feed from many producers while Close
// runs: no panic (send on closed channel), no deadlock, and every
// packet whose Feed returned before Close began reaches the sink —
// only Feeds racing or following Close may be dropped. Run under
// -race; the detector and the accounting are the oracles.
func TestQueueCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		var delivered, accepted atomic.Int64
		var closing atomic.Bool
		q := NewBatchQueue(16, 4, func(ps []*netparse.Packet) { delivered.Add(int64(len(ps))) })
		const producers, perProducer = 8, 50
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					q.Feed(&netparse.Packet{})
					if !closing.Load() {
						accepted.Add(1)
					}
				}
			}()
		}
		closing.Store(true)
		q.Close() // races the producers on purpose
		wg.Wait()
		q.Close() // idempotent
		if got, min := delivered.Load(), accepted.Load(); got < min || got > producers*perProducer {
			t.Fatalf("round %d: delivered %d, want between %d (fed before Close) and %d (fed at all)",
				round, got, min, producers*perProducer)
		}
	}
}

// TestFeedRecordCountsParseErrors verifies undecodable wire records
// increment the per-class counters instead of aborting, and that good
// records still flow.
func TestFeedRecordCountsParseErrors(t *testing.T) {
	f := getFixture(t)
	m := NewMonitor(f.pipe, f.monitorConfig(), Config{})
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

	m.FeedRecord(base, []byte{0x01, 0x02}) // truncated ethernet
	m.FeedRecord(base, make([]byte, 64))   // ethertype 0 → unsupported
	good, err := netparse.Encode(&netparse.Packet{
		SrcIP: f.tb.Device("TPLink Plug").IP, DstIP: f.tb.LocalPrefix.Addr(),
		SrcPort: 10000, DstPort: 53, Proto: netparse.ProtoUDP, Payload: []byte("x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.FeedRecord(base, good)

	st := m.Stats()
	if st.ParseErrors != 2 {
		t.Errorf("ParseErrors = %d, want 2", st.ParseErrors)
	}
	if st.ParseErrorsByClass[netparse.ClassTruncated] != 1 {
		t.Errorf("truncated class = %d, want 1", st.ParseErrorsByClass[netparse.ClassTruncated])
	}
	if st.ParseErrorsByClass[netparse.ClassUnsupported] != 1 {
		t.Errorf("unsupported class = %d, want 1", st.ParseErrorsByClass[netparse.ClassUnsupported])
	}
	if st.Packets != 1 {
		t.Errorf("Packets = %d, want 1 (the good record)", st.Packets)
	}
}

// TestMaxSkewDropsAncientPackets verifies the clock-skew gate: once
// stream time has advanced, packets lagging beyond MaxSkew are counted
// and discarded rather than replayed into live flow state.
func TestMaxSkewDropsAncientPackets(t *testing.T) {
	f := getFixture(t)
	m := NewMonitor(f.pipe, f.monitorConfig(), Config{MaxSkew: 2 * time.Second})
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	mk := func(ts time.Time) *netparse.Packet {
		return &netparse.Packet{
			Timestamp: ts,
			SrcIP:     f.tb.Device("TPLink Plug").IP, DstIP: f.tb.LocalPrefix.Addr(),
			SrcPort: 10000, DstPort: 443, Proto: netparse.ProtoTCP,
		}
	}
	m.Feed(mk(base))
	m.Feed(mk(base.Add(10 * time.Second)))
	m.Feed(mk(base.Add(1 * time.Second))) // 9 s behind stream time → dropped
	m.Feed(mk(base.Add(9 * time.Second))) // 1 s behind → accepted

	st := m.Stats()
	if st.LateDropped != 1 {
		t.Errorf("LateDropped = %d, want 1", st.LateDropped)
	}
	if st.Packets != 3 {
		t.Errorf("Packets = %d, want 3", st.Packets)
	}
}
