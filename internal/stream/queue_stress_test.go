package stream

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"behaviot/internal/netparse"
)

// TestQueueFlushCloseFeedStress races blocking Feed producers (on a
// deliberately tiny queue, so they park inside the channel send),
// looping Flush callers, and a Close landing mid-stream. It pins the
// shutdown guarantees: no panic, no deadlock, every packet fed before
// Close began reaches the sink and none arrives twice, per-producer
// arrival order is preserved, and batches never exceed the configured
// size. Run it under -race.
func TestQueueFlushCloseFeedStress(t *testing.T) {
	const (
		feeders   = 6
		perProd   = 500
		queueSize = 8
		batchSize = 3
		total     = int64(feeders * perProd)
	)

	var sunk atomic.Int64
	// lastSeq tracks per-producer ordering; the sink runs on the single
	// consumer goroutine so plain slices are fine, but the counters are
	// atomics because the main goroutine reads them after Close.
	lastSeq := make([]int, feeders)
	var badOrder, badBatch atomic.Int64
	q := NewBatchQueue(queueSize, batchSize, func(ps []*netparse.Packet) {
		if len(ps) == 0 || len(ps) > batchSize {
			badBatch.Add(1)
		}
		for _, p := range ps {
			prod, seq := int(p.SrcPort), int(p.WireLen)
			if seq <= lastSeq[prod] {
				badOrder.Add(1)
			}
			lastSeq[prod] = seq
			sunk.Add(1)
		}
	})

	var accepted atomic.Int64 // Feed calls that returned before Close began
	var closing atomic.Bool
	var wg sync.WaitGroup
	for prod := 0; prod < feeders; prod++ {
		wg.Add(1)
		go func(prod int) {
			defer wg.Done()
			for seq := 1; seq <= perProd; seq++ {
				q.Feed(&netparse.Packet{SrcPort: uint16(prod), WireLen: seq})
				if !closing.Load() {
					accepted.Add(1)
				}
			}
		}(prod)
	}
	// Flush callers race the producers and the close; they must never
	// hang, before or after Close. The Gosched keeps the flusher ↔
	// consumer ack ping-pong from monopolizing the scheduler's runnext
	// slot on GOMAXPROCS=1, which would starve the producers entirely.
	stopFlush := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopFlush:
					return
				default:
					q.Flush()
					runtime.Gosched()
				}
			}
		}()
	}

	// Close only once the race is genuinely in progress: some packets
	// sunk, and ideally producers parked on a full queue.
	deadline := time.Now().Add(5 * time.Second)
	for sunk.Load() < total/4 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	closing.Store(true)
	q.Close()
	q.Close() // double close is a no-op
	close(stopFlush)
	wg.Wait()

	// Close waited for the consumer, so the counts are final. Every
	// Feed that returned before Close began entered the channel, and
	// Close drains, so each of those reached the sink; the strictly
	// increasing per-producer sequence rules out duplicates.
	if got, min := sunk.Load(), accepted.Load(); got < min || got > total {
		t.Errorf("sunk %d, want between %d (fed before Close) and %d (fed at all)", got, min, total)
	}
	if n := badOrder.Load(); n != 0 {
		t.Errorf("%d packets arrived out of per-producer order", n)
	}
	if n := badBatch.Load(); n != 0 {
		t.Errorf("%d sink batches were empty or oversized", n)
	}

	// Post-close: Feed degrades to a drop, Flush is a no-op return —
	// neither panics or hangs.
	before := sunk.Load()
	q.Feed(&netparse.Packet{})
	q.Flush()
	if got := sunk.Load(); got != before {
		t.Errorf("post-close Feed reached the sink (%d -> %d)", before, got)
	}
}

// TestQueueFlushQuiescence pins the checkpointing contract: with no
// concurrent producers, Flush returns only after the sink has seen
// every packet fed so far, even mid-batch.
func TestQueueFlushQuiescence(t *testing.T) {
	var sunk atomic.Int64
	q := NewBatchQueue(64, 7, func(ps []*netparse.Packet) {
		sunk.Add(int64(len(ps)))
	})
	defer q.Close()
	for round := 1; round <= 5; round++ {
		n := round*3 + 1 // never a multiple of the batch size
		for i := 0; i < n; i++ {
			q.Feed(&netparse.Packet{})
		}
		q.Flush()
		want := int64(0)
		for r := 1; r <= round; r++ {
			want += int64(r*3 + 1)
		}
		if got := sunk.Load(); got != want {
			t.Fatalf("round %d: sunk = %d after Flush, want %d", round, got, want)
		}
	}
}
