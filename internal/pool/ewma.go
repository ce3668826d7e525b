package pool

import (
	"sync"
	"time"

	"gputrid/internal/num"
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
	mu     sync.Mutex
	avg    num.EWMA // seconds; its first observation replaces the seed
	seeded bool
}

// ewmaAlpha is the service-time smoothing factor: the weight of the
// newest observation.
const ewmaAlpha = 0.2

// seed installs a prior estimate without counting it as an
// observation; a later first observe overwrites it.
func (e *ewma) seed(d time.Duration) {
	e.mu.Lock()
	if !e.seeded && e.avg.N == 0 {
		e.avg.V = d.Seconds()
		e.seeded = true
	}
	e.mu.Unlock()
}

// observe folds one measured service time into the average.
func (e *ewma) observe(d time.Duration) {
	e.mu.Lock()
	e.avg.Add(d.Seconds(), ewmaAlpha)
	e.mu.Unlock()
}

// value returns the current estimate and whether any estimate exists.
func (e *ewma) value() (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.seeded && e.avg.N == 0 {
		return 0, false
	}
	return time.Duration(e.avg.V * float64(time.Second)), true
}
