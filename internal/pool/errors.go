package pool

import (
	"errors"
	"fmt"
	"time"
)

// Typed admission errors of the serving pool, matchable with errors.Is
// through the "gputrid:"-prefixed wrappers the public Pool returns.
var (
	// ErrOverloaded matches every admission rejection: the shape's wait
	// queue is full, or the request's deadline cannot be met given the
	// observed service time. The concrete error is an *OverloadError
	// carrying a queue-depth snapshot; retrieve it with errors.As.
	ErrOverloaded = errors.New("pool: overloaded")
	// ErrClosed reports a Solve against a pool whose Close has begun.
	ErrClosed = errors.New("pool: closed")
)

// OverloadReason says why admission control rejected a request.
type OverloadReason int

const (
	// QueueFull: the shape's bounded wait queue was at capacity.
	QueueFull OverloadReason = iota
	// DeadlineInfeasible: the request carried a deadline that the
	// estimated queue wait plus one service time already exceeds, so it
	// was rejected eagerly instead of timing out while queued.
	DeadlineInfeasible
)

// String names the rejection reason.
func (r OverloadReason) String() string {
	switch r {
	case QueueFull:
		return "queue full"
	case DeadlineInfeasible:
		return "deadline infeasible"
	default:
		return fmt.Sprintf("overload(%d)", int(r))
	}
}

// OverloadError is the typed fail-fast rejection of admission control.
// It snapshots the congestion the request saw, so callers (and the
// HTTP front-end's Retry-After logic) can act on it.
type OverloadError struct {
	// M, N identify the shape the request asked for.
	M, N int
	// Reason says which admission check failed.
	Reason OverloadReason
	// QueueDepth is the number of requests already waiting for this
	// shape at rejection time; QueueLimit is the configured bound.
	QueueDepth, QueueLimit int
	// Capacity is the number of warmed solver instances for the shape.
	Capacity int
	// EstWait is the admission controller's service-time estimate for
	// how long the request would have waited (0 when unknown): one
	// service time per request ahead of it on QueueFull, the queue
	// drain over the capacity on DeadlineInfeasible. Retry-After hints
	// derive from it.
	EstWait time.Duration
}

// Error formats the rejection with its congestion snapshot.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("pool: overloaded (%s): shape %dx%d, %d/%d queued, capacity %d, est wait %v",
		e.Reason, e.M, e.N, e.QueueDepth, e.QueueLimit, e.Capacity, e.EstWait)
}

// Is matches the ErrOverloaded class.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }
