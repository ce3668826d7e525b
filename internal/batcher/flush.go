package batcher

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gputrid/internal/clock"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// pending slot states. The flusher claims a Waiting slot with a CAS
// before delivering; a cancelling caller CASes it to Cancelled first
// to abandon the wait. Exactly one side wins, so exactly one side
// accounts the slot and exactly one side recycles it.
const (
	stateWaiting int32 = iota
	stateClaimed
	stateCancelled
)

// pending is one request's slot in a flight: where its systems start
// in the megabatch, where the answer goes, and the rendezvous channel
// its caller blocks on. Slots recycle through the queue's free list;
// done has capacity one and is drained by the caller before recycle.
type pending[T num.Real] struct {
	state atomic.Int32
	done  chan struct{}
	dst   []T
	first int
	m     int
	enq   time.Time
	err   error
	res   Result
}

// flight is one megabatch being assembled (or awaiting flush). dirty
// tracks the high-water column touched by real systems since the last
// pad, so re-padding after a partial flight touches only the stale
// region.
type flight[T num.Real] struct {
	mb    Megabatch[T]
	pend  []*pending[T]
	dirty int
}

// flushCause records why a flight flushed, for the stats counters.
type flushCause uint8

const (
	causeWatermark flushCause = iota
	causeDeadline
	causeClose
)

// queue coalesces requests of one row count N. One flusher goroutine
// per queue means at most one megabatch of this shape is in the
// solver at a time — backpressure beyond that shows up as sealed
// flights and, past MaxQueuedFlights, as ErrSaturated.
type queue[T num.Real] struct {
	b    *Batcher[T]
	n    int
	kick chan struct{}
	// timer is owned by the flusher goroutine (Reset/C); admitters
	// wake the flusher through kick instead of touching it.
	timer clock.Timer

	mu       sync.Mutex //tridlint:lockrank 16
	cur      *flight[T]
	sealed   []*flight[T]
	spares   []*flight[T]
	freePend []*pending[T]
	flushAt  time.Time
	closed   bool

	// deliver is the flusher's private scratch for slots claimed in
	// the current flush; only the flusher goroutine touches it.
	deliver []*pending[T]
}

// kickNow wakes the flusher without blocking; a kick already pending
// is enough.
func (q *queue[T]) kickNow() {
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// admit appends the request's systems to the open flight (sealing a
// full one, opening a fresh one as needed) and returns the caller's
// pending slot. now is the admission timestamp from the batcher's
// clock.
func (q *queue[T]) admit(ctx context.Context, req *Request[T], now time.Time) (*pending[T], error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	if q.cur != nil && q.cur.mb.Count+req.M > q.b.maxBatch {
		q.sealed = append(q.sealed, q.cur)
		q.cur = nil
		q.kickNow()
	}
	if q.cur == nil {
		if len(q.sealed) >= q.b.maxQueued {
			q.b.saturated.Add(1)
			return nil, ErrSaturated
		}
		q.cur = q.takeFlightLocked()
	}
	f := q.cur
	p := q.takePendingLocked()
	p.dst = req.X
	p.first = f.mb.Count
	p.m = req.M
	p.enq = now
	appendSystems(f.mb.V, f.mb.Count, req)
	f.mb.Count += req.M
	if f.mb.Count > f.dirty {
		f.dirty = f.mb.Count
	}
	f.pend = append(f.pend, p)

	target := now.Add(q.b.maxWait)
	if dl, ok := ctx.Deadline(); ok {
		if lim := dl.Add(-slackMargin); lim.Before(target) {
			target = lim
		}
	}
	if target.Before(now) {
		target = now
	}
	if f.mb.Count >= q.b.maxBatch {
		q.sealed = append(q.sealed, f)
		q.cur = nil
		q.kickNow()
	} else if len(f.pend) == 1 || target.Before(q.flushAt) {
		// The flight's first request owns the deadline outright (the
		// previous flight's flushAt is stale); later ones only pull
		// it earlier.
		q.flushAt = target
		q.kickNow()
	}
	return p, nil
}

// takeFlightLocked pops a recycled flight or builds a cold one with
// every column padded to the inert identity system.
func (q *queue[T]) takeFlightLocked() *flight[T] {
	if k := len(q.spares); k > 0 {
		f := q.spares[k-1]
		q.spares = q.spares[:k-1]
		return f
	}
	m := q.b.maxBatch
	f := &flight[T]{}
	f.mb.V = matrix.NewInterleaved[T](m, q.n)
	f.mb.Xi = make([]T, m*q.n)
	f.mb.Verdicts = make([]Verdict, m)
	f.mb.Scratch = make([]float64, 4*m)
	padSystems(f.mb.V, 0, m)
	return f
}

// takePendingLocked pops a recycled pending slot or allocates one.
func (q *queue[T]) takePendingLocked() *pending[T] {
	var p *pending[T]
	if k := len(q.freePend); k > 0 {
		p = q.freePend[k-1]
		q.freePend = q.freePend[:k-1]
	} else {
		p = &pending[T]{done: make(chan struct{}, 1)}
	}
	p.err = nil
	p.res = Result{}
	p.state.Store(stateWaiting)
	return p
}

// recycle returns a delivered pending slot to the free list (the
// flusher recycles cancelled ones through its compaction pass).
func (q *queue[T]) recycle(p *pending[T]) {
	q.mu.Lock()
	p.dst = nil
	p.err = nil
	q.freePend = append(q.freePend, p)
	q.mu.Unlock()
}

// run is the queue's flusher goroutine: flush everything due, then
// sleep until an admitter kicks or the deadline timer fires.
func (q *queue[T]) run() {
	defer q.b.wg.Done()
	for {
		if q.pump() {
			return
		}
		select {
		case <-q.kick:
		case <-q.timer.C():
		}
	}
}

// pump flushes flights until none is due, returning true when the
// queue is closed and fully drained.
func (q *queue[T]) pump() bool {
	for {
		f, cause, exit := q.next()
		if f == nil {
			return exit
		}
		q.flush(f, cause)
	}
}

// next pops the next due flight, or arms the deadline timer and
// returns nil. A timer firing is only a wake-up hint (the Timer
// contract allows one spurious firing per re-arm), so the deadline is
// always re-checked against the clock here.
func (q *queue[T]) next() (f *flight[T], cause flushCause, exit bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.sealed) > 0 {
		f = q.sealed[0]
		copy(q.sealed, q.sealed[1:])
		q.sealed[len(q.sealed)-1] = nil
		q.sealed = q.sealed[:len(q.sealed)-1]
		return f, causeWatermark, false
	}
	if q.cur != nil && q.cur.mb.Count > 0 {
		if q.closed {
			f = q.cur
			q.cur = nil
			return f, causeClose, false
		}
		now := q.b.clk.Now()
		if !now.Before(q.flushAt) {
			f = q.cur
			q.cur = nil
			return f, causeDeadline, false
		}
		q.timer.Reset(q.flushAt.Sub(now))
		// Re-check after arming: a VirtualClock Advance between the
		// Now above and the Reset would schedule the firing past the
		// deadline and never deliver it; the fresh read closes that
		// window (the stale arming then fires spuriously, which pump
		// absorbs).
		if !q.b.clk.Now().Before(q.flushAt) {
			f = q.cur
			q.cur = nil
			return f, causeDeadline, false
		}
		return nil, 0, false
	}
	return nil, 0, q.closed
}

// flush solves one flight and delivers each uncancelled slot its own
// systems and verdicts. Runs with no locks held (the solve may take
// pool locks, rank 20). On the warm all-healthy path it performs no
// heap allocations.
func (q *queue[T]) flush(f *flight[T], cause flushCause) {
	b := q.b
	mb := &f.mb
	start := b.clk.Now()
	if f.dirty > mb.Count {
		// Columns [Count, dirty) hold stale systems from the flight's
		// previous use; restore the inert identity padding so they
		// cannot poison guard scans. Columns past dirty are already
		// clean.
		padSystems(mb.V, mb.Count, f.dirty)
	}
	for i := 0; i < mb.Count; i++ {
		mb.Verdicts[i] = Verdict{}
	}
	err := b.solve(context.Background(), mb)
	if err != nil {
		b.failedFlushes.Add(1)
	}
	switch cause {
	case causeWatermark:
		b.flushWatermark.Add(1)
	case causeDeadline:
		b.flushDeadline.Add(1)
	case causeClose:
		b.flushClose.Add(1)
	}
	b.flushedSystems.Add(uint64(mb.Count))
	b.paddedSystems.Add(uint64(mb.V.M - mb.Count))
	for {
		prev := b.maxFlushSystems.Load()
		if uint64(mb.Count) <= prev || b.maxFlushSystems.CompareAndSwap(prev, uint64(mb.Count)) {
			break
		}
	}

	// Claim every slot and compute its answer while the megabatch is
	// still ours. A slot we fail to claim was cancelled — it stays
	// compacted at the front of f.pend and is recycled under the lock
	// below. Claimed slots are fully materialized (demuxed into the
	// caller's dst, res/err set) before the flight recycles, but their
	// wake-ups are deferred until after: the moment a caller wakes it
	// may re-admit, and the warm path must find the flight already in
	// the spares list instead of cold-allocating another.
	nc := 0
	for _, p := range f.pend {
		if !p.state.CompareAndSwap(stateWaiting, stateClaimed) {
			f.pend[nc] = p
			nc++
			continue
		}
		if err != nil {
			p.err = err
			p.res = Result{Systems: p.m, FlushSize: mb.Count, Wait: start.Sub(p.enq)}
		} else {
			demuxSystems(p.dst, mb.Xi, mb.V.M, q.n, p.first, p.m)
			rescued := 0
			var verr error
			for i := p.first; i < p.first+p.m; i++ {
				if mb.Verdicts[i].Rescued {
					rescued++
				}
				if e := mb.Verdicts[i].Err; e != nil {
					verr = errors.Join(verr, fmt.Errorf("batcher: system %d (megabatch column %d): %w", i-p.first, i, e))
				}
			}
			p.err = verr
			p.res = Result{Systems: p.m, FlushSize: mb.Count, Rescued: rescued, Wait: start.Sub(p.enq)}
		}
		q.deliver = append(q.deliver, p)
	}

	q.mu.Lock()
	for i := 0; i < nc; i++ {
		p := f.pend[i]
		p.dst = nil
		q.freePend = append(q.freePend, p)
	}
	for i := range f.pend {
		f.pend[i] = nil
	}
	f.pend = f.pend[:0]
	f.dirty = mb.Count
	mb.Count = 0
	q.spares = append(q.spares, f)
	q.mu.Unlock()

	for i, p := range q.deliver {
		b.pendingSystems.Add(-int64(p.m))
		p.done <- struct{}{}
		q.deliver[i] = nil
	}
	q.deliver = q.deliver[:0]
}

// appendSystems copies the request's contiguous systems into
// megabatch columns [at, at+req.M): plane element (i, j) of the
// request lands at interleaved index j*M + at + i — the strided copy
// that makes coalescing cheap and the downstream transpose
// unnecessary.
//
//tridlint:hotpath
func appendSystems[T num.Real](v *matrix.Interleaved[T], at int, req *Request[T]) {
	m, n, stride := req.M, req.N, v.M
	for i := 0; i < m; i++ {
		base := i * n
		for j := 0; j < n; j++ {
			d := j*stride + at + i
			v.Lower[d] = req.Lower[base+j]
			v.Diag[d] = req.Diag[base+j]
			v.Upper[d] = req.Upper[base+j]
			v.RHS[d] = req.RHS[base+j]
		}
	}
}

// demuxSystems copies systems [first, first+m) of the interleaved
// solution xi (column stride `stride`) into dst in natural contiguous
// order.
//
//tridlint:hotpath
func demuxSystems[T num.Real](dst, xi []T, stride, n, first, m int) {
	for i := 0; i < m; i++ {
		base := i * n
		for j := 0; j < n; j++ {
			dst[base+j] = xi[j*stride+first+i]
		}
	}
}

// padSystems writes the inert identity system (diag 1, zero
// elsewhere) into megabatch columns [from, to), so unused capacity
// solves to zero instead of garbage.
//
//tridlint:hotpath
func padSystems[T num.Real](v *matrix.Interleaved[T], from, to int) {
	var zero, one T
	one = 1
	stride, n := v.M, v.N
	for j := 0; j < n; j++ {
		base := j * stride
		for i := from; i < to; i++ {
			v.Lower[base+i] = zero
			v.Diag[base+i] = one
			v.Upper[base+i] = zero
			v.RHS[base+i] = zero
		}
	}
}
