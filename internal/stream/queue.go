package stream

import (
	"sync"

	"behaviot/internal/netparse"
)

// Queue is a bounded feed pump between producers and a packet sink:
// producers enqueue from any goroutine, a single consumer goroutine
// drains into the sink in arrival order, and Feed blocks while the
// queue is full (backpressure). Nothing the daemon runs goes through
// one any more — every source ingests inline on its own goroutine —
// it survives for the hand-off cost bench/layers.go still measures.
type Queue struct {
	ch chan item

	mu     sync.RWMutex // guards closed
	closed bool

	wg sync.WaitGroup
}

// item is one queue element: a packet, or a flush marker whose ack
// channel the consumer closes once every earlier packet has been sunk.
type item struct {
	p   *netparse.Packet
	ack chan<- struct{}
}

// NewBatchQueue starts the consumer goroutine draining up to size
// queued packets into sink, which runs on that single goroutine. After a
// blocking receive the consumer greedily drains whatever else is already
// queued (up to batch packets) and sinks them in one call, so a sink
// that takes a lock pays it once per batch instead of once per packet.
// Under light load batches degenerate to single packets — no latency is
// added waiting for a batch to fill. Arrival order is preserved within
// and across batches, and a flush marker acks only after the packets
// queued before it have been sunk. Close must be called to drain and
// stop the consumer.
func NewBatchQueue(size, batch int, sink func([]*netparse.Packet)) *Queue {
	if size <= 0 {
		size = 1024
	}
	if batch <= 0 {
		batch = 1
	}
	if batch > size {
		batch = size
	}
	q := &Queue{ch: make(chan item, size)}
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		buf := make([]*netparse.Packet, 0, batch)
		flush := func() {
			if len(buf) > 0 {
				sink(buf)
				buf = buf[:0]
			}
		}
		for it := range q.ch {
			for {
				if it.ack != nil {
					// Everything queued before the marker is in buf or
					// already sunk; hand it off before acking.
					flush()
					close(it.ack)
				} else {
					buf = append(buf, it.p)
					if len(buf) == batch {
						flush()
					}
				}
				// Greedily take what is already queued; block again
				// only when the channel is momentarily empty.
				var ok bool
				select {
				case it, ok = <-q.ch:
					if !ok {
						flush()
						return
					}
				default:
					ok = false
				}
				if !ok {
					break
				}
			}
			flush()
		}
		flush()
	}()
	return q
}

// Feed enqueues with backpressure: it blocks while the queue is full.
// Feeding a closed queue drops the packet rather than panicking, so
// shutdown races degrade gracefully. (The read lock is held across the
// send; Close takes the write side, so it cannot close the channel out
// from under a blocked producer — the consumer keeps draining
// meanwhile.)
func (q *Queue) Feed(p *netparse.Packet) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return
	}
	q.ch <- item{p: p}
}

// Flush blocks until every packet enqueued before the call has been
// handed to the sink — the quiescence point checkpointing needs: after
// Flush returns (and with no concurrent producers) the sink has seen
// exactly the packets fed so far. It rides the same FIFO channel as
// packets, so ordering is inherent. Flushing a closed queue returns
// immediately (Close already drained everything).
func (q *Queue) Flush() {
	q.mu.RLock()
	if q.closed {
		q.mu.RUnlock()
		return
	}
	done := make(chan struct{})
	q.ch <- item{ack: done}
	q.mu.RUnlock()
	<-done
}

// Close stops accepting packets, waits for the consumer to drain what
// was queued, and returns. Safe to call more than once; producers
// racing Close have their packets dropped, never a panic.
func (q *Queue) Close() {
	q.mu.Lock()
	already := q.closed
	q.closed = true
	q.mu.Unlock()
	if already {
		return
	}
	close(q.ch)
	q.wg.Wait()
}
