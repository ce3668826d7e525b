package core

import (
	"testing"
	"time"
)

// TestBackoffJitterDeterministic pins the seeded-jitter contract: the
// wait is a pure function of (policy, salt, attempt) — replays are
// exact — while distinct salts (simultaneously failing shards) draw
// distinct offsets instead of retrying in lockstep.
func TestBackoffJitterDeterministic(t *testing.T) {
	p := RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: time.Second}
	for attempt := 0; attempt < 5; attempt++ {
		for salt := uint64(0); salt < 4; salt++ {
			a := p.backoff(attempt, salt)
			b := p.backoff(attempt, salt)
			if a != b {
				t.Fatalf("backoff(%d, %d) not deterministic: %v vs %v", attempt, salt, a, b)
			}
		}
	}
	distinct := map[time.Duration]bool{}
	for salt := uint64(0); salt < 8; salt++ {
		distinct[p.backoff(0, salt)] = true
	}
	if len(distinct) < 2 {
		t.Errorf("8 salts produced %d distinct backoffs, want de-lockstepped waits", len(distinct))
	}
}

// TestBackoffJitterBounds checks the jittered wait stays inside the
// advertised envelope: within ±25% of the exponential value and never
// above MaxBackoff.
func TestBackoffJitterBounds(t *testing.T) {
	base, cap := time.Millisecond, 100*time.Millisecond
	p := RetryPolicy{BaseBackoff: base, MaxBackoff: cap}
	for attempt := 0; attempt < 12; attempt++ {
		nominal := base << uint(attempt)
		if nominal > cap || nominal <= 0 {
			nominal = cap
		}
		lo := time.Duration(float64(nominal) * 0.75)
		for salt := uint64(0); salt < 16; salt++ {
			d := p.backoff(attempt, salt)
			if d < lo || d > cap {
				t.Fatalf("backoff(%d, %d) = %v outside [%v, %v]", attempt, salt, d, lo, cap)
			}
		}
	}
}
