package backoff

import (
	"testing"
	"time"
)

// within reports whether d lies in the ±25% jitter band around nominal.
func within(d, nominal time.Duration) bool {
	lo := time.Duration(float64(nominal) * (1 - jitter))
	hi := time.Duration(float64(nominal) * (1 + jitter))
	return d >= lo && d < hi
}

func TestDelayGrowthAndCap(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond}
	nominal := 100 * time.Millisecond
	for attempt := 1; attempt <= 12; attempt++ {
		for seed := uint64(0); seed < 16; seed++ {
			if d := p.Delay(attempt, seed); !within(d, nominal) {
				t.Errorf("attempt %d seed %d: delay %v outside ±25%% of %v", attempt, seed, d, nominal)
			}
		}
		if nominal *= 2; nominal > maxDelay {
			nominal = maxDelay
		}
	}
	// Deep attempts must not overflow into negative durations.
	for seed := uint64(0); seed < 16; seed++ {
		if d := p.Delay(200, seed); !within(d, maxDelay) {
			t.Errorf("attempt 200 seed %d: delay %v outside ±25%% of the %v cap", seed, d, maxDelay)
		}
	}
}

func TestDelayJitterBoundsAndDeterminism(t *testing.T) {
	p := Policy{Base: time.Second}
	seen := map[time.Duration]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		d := p.Delay(1, seed)
		if !within(d, time.Second) {
			t.Errorf("seed %d: delay %v outside ±25%% of 1s", seed, d)
		}
		if d2 := p.Delay(1, seed); d2 != d {
			t.Errorf("seed %d: delay not deterministic (%v vs %v)", seed, d, d2)
		}
		seen[d] = true
	}
	if len(seen) < 32 {
		t.Errorf("only %d distinct delays over 64 seeds; jitter is not spreading retriers", len(seen))
	}
}

func TestZeroPolicyUsesDefaults(t *testing.T) {
	var p Policy
	if d := p.Delay(1, Seed("tenant-a")); !within(d, DefaultBase) {
		t.Errorf("zero-policy first delay %v outside ±25%% of %v", d, DefaultBase)
	}
	if Seed("tenant-a") == Seed("tenant-b") {
		t.Error("distinct identities produced the same jitter seed")
	}
}

func TestAttemptFloor(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond}
	for _, attempt := range []int{0, -5} {
		if got, want := p.Delay(attempt, 1), p.Delay(1, 1); got != want {
			t.Errorf("attempt %d = %v, want attempt 1's %v", attempt, got, want)
		}
	}
}
