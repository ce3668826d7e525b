package pool

import (
	"sync"
	"time"
)

// ewma is a concurrency-safe exponentially weighted moving average of
// per-solve service time, one per shape. The admission controller uses
// it to reject requests whose deadline the queue ahead of them already
// makes infeasible; it is seeded with the cost model's modeled device
// time so deadline checks work before the first solve completes, then
// tracks observed service time (which includes the host-side sharded
// replay, interleave passes and any retry backoff the model does not
// see).
type ewma struct {
	mu sync.Mutex
	v  float64 // seconds
	n  int     // observations (seed included)
}

// ewmaAlpha is the service-time smoothing factor: the weight of the
// newest observation.
const ewmaAlpha = 0.2

// seed installs a prior estimate without counting it as an
// observation-weighted sample; a later first Observe overwrites it.
func (e *ewma) seed(d time.Duration) {
	e.mu.Lock()
	if e.n == 0 {
		e.v = d.Seconds()
		e.n = 1
	}
	e.mu.Unlock()
}

// observe folds one measured service time into the average.
func (e *ewma) observe(d time.Duration) {
	x := d.Seconds()
	e.mu.Lock()
	if e.n <= 1 {
		// First real measurement replaces the modeled-time seed.
		e.v = x
	} else {
		e.v += ewmaAlpha * (x - e.v)
	}
	e.n++
	e.mu.Unlock()
}

// value returns the current estimate and whether any estimate exists.
func (e *ewma) value() (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		return 0, false
	}
	return time.Duration(e.v * float64(time.Second)), true
}
