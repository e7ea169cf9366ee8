package fleet

import (
	"sort"
	"sync"
	"time"
)

// shard is one serialization domain plus its housekeeping worker. The
// mutex serializes every monitor touch for the shard's tenants (ingest,
// checkpoint capture, status sampling), bounding feed CPU concurrency
// to the shard count however many tenants are registered — the
// shard-per-worker placement the hash ring feeds. The worker goroutine
// lands periodic checkpoints for the shard's tenants so checkpointing
// never rides the ingest path.
type shard struct {
	index int
	mu    sync.Mutex // the shard serialization lock (see Tenant.shardMu)

	done chan struct{}
	wg   sync.WaitGroup
}

func newShard(index int, d *Daemon) *shard {
	sh := &shard{index: index, done: make(chan struct{})}
	if d.cfg.StoreRoot != "" && d.cfg.CheckpointInterval > 0 {
		sh.wg.Add(1)
		go sh.housekeep(d)
	}
	return sh
}

// housekeep checkpoints the shard's tenants on the configured interval
// and paces per-tenant checkpoint retries. Instead of a fixed ticker
// it runs a timer that wakes at whichever comes first: the next
// interval tick (checkpoint everything) or the earliest backoff-paced
// retry among the shard's degraded tenants (checkpoint just those now
// due). Tenants are walked in sorted-ID order so checkpoint disk
// traffic is evenly phased rather than hash-ordered bursts; tenants
// added or removed mid-tick are naturally picked up next wake.
// Quarantined tenants are skipped entirely — their state is fenced
// until Restart.
func (sh *shard) housekeep(d *Daemon) {
	defer sh.wg.Done()
	interval := d.cfg.CheckpointInterval
	timer := time.NewTimer(interval)
	defer timer.Stop()
	nextTick := time.Now().Add(interval)
	for {
		select {
		case <-sh.done:
			return
		case <-timer.C:
		}
		now := time.Now()
		tickDue := !now.Before(nextTick)
		if tickDue {
			nextTick = now.Add(interval)
		}

		d.mu.RLock()
		var mine []*Tenant
		for _, t := range d.tenants {
			if t.Shard == sh.index {
				mine = append(mine, t)
			}
		}
		d.mu.RUnlock()
		sort.Slice(mine, func(i, j int) bool { return mine[i].ID < mine[j].ID })

		for _, t := range mine {
			select {
			case <-sh.done:
				return
			default:
			}
			if t.closed.Load() || t.Health() == Quarantined {
				continue
			}
			due := tickDue
			if retryAt := t.ckptRetryAtUnix.Load(); retryAt > 0 && now.UnixNano() >= retryAt {
				due = true
			}
			if due {
				t.Checkpoint()
			}
		}

		// Wake at the earlier of the next interval tick and the
		// earliest pending retry (floored so a retry landing "now"
		// cannot spin the loop).
		wake := nextTick
		for _, t := range mine {
			if t.closed.Load() || t.Health() == Quarantined {
				continue
			}
			if retryAt := t.ckptRetryAtUnix.Load(); retryAt > 0 {
				at := time.Unix(0, retryAt)
				if at.Before(wake) {
					wake = at
				}
			}
		}
		sleep := time.Until(wake)
		if sleep < 10*time.Millisecond {
			sleep = 10 * time.Millisecond
		}
		timer.Reset(sleep)
	}
}

// stop halts the housekeeping worker and waits for it. Idempotent via
// the daemon's closed flag (Close calls it exactly once).
func (sh *shard) stop() {
	close(sh.done)
	sh.wg.Wait()
}
