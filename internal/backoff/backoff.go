// Package backoff is the one retry-pacing policy the whole tree
// shares: exponential growth from a base delay, a hard cap, and
// deterministic multiplicative jitter. The fleet shard housekeeper
// paces checkpoint retries with it and fleetcat spaces its dial/send
// reconnect attempts with it — so "how fast do we hammer a struggling
// disk or daemon" is defined in one place.
//
// Jitter is deterministic: the delay is a pure function of (policy,
// attempt, seed). Callers derive the seed from a stable identity (a
// tenant ID, a dial address), which decorrelates a fleet of retriers —
// a thousand tenants degraded by the same ENOSPC do not stampede the
// disk on the same tick — while keeping every test reproducible.
package backoff

import (
	"time"
)

// DefaultBase is the first delay of the zero Policy.
const DefaultBase = 500 * time.Millisecond

// The cap on a grown delay, and the jitter that spreads each delay
// uniformly over [1-jitter, 1+jitter) times its nominal value.
const (
	maxDelay = 30 * time.Second
	jitter   = 0.25
)

// Policy is an exponential backoff schedule: Base doubling per attempt
// up to a 30s cap, with ±25% jitter. The zero value means a 500ms base.
type Policy struct {
	// Base is the nominal first delay (attempt 1).
	Base time.Duration
}

// Delay returns the pause before retry number attempt (1-based: the
// first retry after the first failure is attempt 1). Growth is
// Base·2^(attempt-1) capped at 30s, then scaled by the deterministic
// jitter drawn from (seed, attempt). Attempts below 1 are treated as 1.
func (p Policy) Delay(attempt int, seed uint64) time.Duration {
	d := p.Base
	if d <= 0 {
		d = DefaultBase
	}
	if attempt < 1 {
		attempt = 1
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= maxDelay || d < 0 { // d<0: duration overflow
			d = maxDelay
			break
		}
	}
	if d > maxDelay {
		d = maxDelay
	}
	// splitmix64 over (seed, attempt): uniform in [0,1), cheap, and
	// stable across runs and platforms.
	u := float64(splitmix64(seed^uint64(attempt)*0x9E3779B97F4A7C15)>>11) / (1 << 53)
	d = time.Duration(float64(d) * (1 - jitter + 2*jitter*u))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Seed derives a stable jitter seed from an identity string (FNV-1a),
// so retriers named differently pace differently. The fleet also places
// tenants by it (fleet.shardOf).
func Seed(id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

// splitmix64 is the standard 64-bit finalizer-style mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
