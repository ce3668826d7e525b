package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gputrid/internal/num"
)

// Typed execution-failure errors of the fault-tolerant pipeline,
// matchable with errors.Is through every wrapping layer up to the
// public Solver.
var (
	// ErrCancelled reports a solve stopped by context cancellation or
	// deadline expiry. The returned error also matches the underlying
	// context.Canceled / context.DeadlineExceeded via errors.Is.
	ErrCancelled = errors.New("core: solve cancelled")
	// ErrFaulted reports a transient device fault that survived the
	// retry budget and could not be degraded away (retries exhausted
	// with degradation disabled, or the degraded re-solve itself
	// failed). The wrapped chain carries the *gpusim.LaunchError.
	ErrFaulted = errors.New("core: unrecovered device fault")
)

// cancelled ties ErrCancelled to the specific context error so callers
// can match either: errors.Is(err, ErrCancelled) and
// errors.Is(err, context.DeadlineExceeded) both hold.
func cancelled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("%w: %w", ErrCancelled, cause)
}

// RetryPolicy bounds the pipeline's recovery from transient launch
// faults. Each shard of a solve is a checkpointed unit of work: its
// inputs are never mutated by its kernels, so a faulted shard is simply
// re-executed from scratch, with capped exponential backoff between
// attempts, and the recovered result is bitwise identical to a
// fault-free run. A shard still faulting after MaxRetries retries is
// degraded: its systems are re-solved through the pivoting GTSV path
// (host-side, stable for any nonsingular system) instead of failing
// the whole batch — unless NoDegrade demands a hard ErrFaulted.
//
// Each wait is spread uniformly over ±25% of its exponential value, so
// shards (or devices of a distributed solve) that fault simultaneously
// do not retry in lockstep and collide again. The draw is a pure hash
// of (the caller's shard salt, attempt) — never of time or scheduling
// — so a given configuration replays the exact same waits on every
// run. The MaxBackoff cap still bounds the jittered wait.
//
// The zero value is the production default: 3 retries, 50µs base
// backoff capped at 2ms, degradation on.
type RetryPolicy struct {
	// MaxRetries bounds re-executions per shard after the first
	// attempt. 0 means the default of 3; negative disables retry
	// (a first fault goes straight to degradation or ErrFaulted).
	MaxRetries int
	// BaseBackoff is the pre-retry wait of the first retry, doubled
	// each further attempt; 0 means 50µs.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means 2ms.
	MaxBackoff time.Duration
	// NoDegrade fails the solve with ErrFaulted once retries are
	// exhausted instead of degrading the shard to the GTSV path,
	// bounding the solve's cost envelope strictly to the fast path.
	NoDegrade bool
}

func (p RetryPolicy) maxRetries() int {
	switch {
	case p.MaxRetries == 0:
		return 3
	case p.MaxRetries < 0:
		return 0
	default:
		return p.MaxRetries
	}
}

// backoff returns the wait before retry attempt+1, growing 2x per
// attempt from BaseBackoff up to MaxBackoff, spread by the ±25%
// jitter. salt identifies the retrying unit (worker shard, distributed
// slab) so simultaneous failures draw different offsets.
func (p RetryPolicy) backoff(attempt int, salt uint64) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 50 * time.Microsecond
	}
	cap := p.MaxBackoff
	if cap <= 0 {
		cap = 2 * time.Millisecond
	}
	var d time.Duration
	if attempt > 30 {
		d = cap
	} else if d = base << uint(attempt); d > cap || d <= 0 {
		d = cap
	}
	// u is a deterministic uniform draw in [0, 1): splitmix-style
	// avalanche over (salt, attempt), the same construction as the
	// fault injector's site hash.
	h := num.Mix64(num.Mix64(0x6a09e667f3bcc909) ^ num.Mix64(salt^0x9e3779b97f4a7c15))
	h = num.Mix64(h ^ uint64(attempt))
	u := float64(h>>11) / (1 << 53)
	d = time.Duration(float64(d) * (0.75 + 0.5*u))
	if d > cap {
		d = cap
	}
	return d
}

// sleepBackoff waits d, returning early with the context error if ctx
// is done first. A nil ctx sleeps unconditionally.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// FaultReport describes what the fault-recovery layer did during one
// solve: how many transient faults fired, how often each kernel was
// retried, which systems were degraded to the pivoting GTSV path, and
// how much modeled device time the faulted attempts wasted. It is
// reset at the start of every solve and folded into the pipeline's
// Report.
type FaultReport struct {
	// Faults counts the transient launch faults observed.
	Faults int
	// Retries counts shard re-executions per kernel name. Nil until
	// the first retry.
	Retries map[string]int
	// Degraded lists (ascending) the systems whose solutions came from
	// the degraded GTSV re-solve instead of the device fast path.
	Degraded []int
	// WastedModeledTime estimates the modeled device time burned by
	// faulted attempts: the re-executed blocks' share of their kernel's
	// modeled time, plus one watchdogBudget per hang.
	WastedModeledTime time.Duration
}

// watchdogBudget is the modeled per-launch hang budget: a hung block is
// detected and killed after this much device time, which is charged to
// FaultReport.WastedModeledTime. The simulator cannot actually hang, so
// the budget is pure accounting.
const watchdogBudget = 10 * time.Millisecond

// Any reports whether the solve saw any fault activity.
func (r *FaultReport) Any() bool {
	return r.Faults > 0 || len(r.Degraded) > 0
}

// TotalRetries sums Retries across kernels.
func (r *FaultReport) TotalRetries() int {
	n := 0
	for _, v := range r.Retries {
		n += v
	}
	return n
}

func (r *FaultReport) reset() {
	r.Faults = 0
	r.Degraded = r.Degraded[:0]
	r.WastedModeledTime = 0
	clear(r.Retries)
}

func (r *FaultReport) addRetry(kernel string, n int) {
	if r.Retries == nil {
		r.Retries = make(map[string]int, 4)
	}
	r.Retries[kernel] += n
}

// workerFaults is one worker lane's fault bookkeeping for the current
// solve, merged into the pipeline FaultReport by the coordinator after
// the join (the start/done handshake orders the accesses).
type workerFaults struct {
	faults   int
	hangs    int
	retries  [2]int // per launch slot (PCR/k0, then Thomas)
	retryBlk [2]int // blocks re-executed per slot, for the waste model
	degraded bool   // shard exhausted retries; systems go to GTSV
}
