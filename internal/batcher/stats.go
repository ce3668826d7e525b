package batcher

import "sort"

// Stats is a consistent-enough snapshot of the batcher's counters
// (each counter is individually exact; the set is not atomic as a
// whole).
type Stats struct {
	// Admitted / AdmittedSystems count requests and systems accepted
	// into a flight (shed and malformed requests are not admitted).
	Admitted        uint64 `json:"admitted"`
	AdmittedSystems uint64 `json:"admitted_systems"`
	// PendingSystems is the live gauge of systems admitted but not
	// yet delivered or cancelled.
	PendingSystems int64 `json:"pending_systems"`
	// FlushesWatermark/Deadline/Close count flights by flush cause.
	FlushesWatermark uint64 `json:"flushes_watermark"`
	FlushesDeadline  uint64 `json:"flushes_deadline"`
	FlushesClose     uint64 `json:"flushes_close"`
	// FlushedSystems counts real (non-padding) systems solved;
	// FlushedSystems/flushes is the mean coalescing factor.
	FlushedSystems uint64 `json:"flushed_systems"`
	// PaddedSystems counts identity-padding columns solved alongside
	// the real ones — the cost of flushing partial megabatches.
	PaddedSystems uint64 `json:"padded_systems"`
	// MaxFlushSystems is the largest single flush.
	MaxFlushSystems uint64 `json:"max_flush_systems"`
	// Saturated counts requests shed with ErrSaturated.
	Saturated uint64 `json:"saturated"`
	// CancelledWaits counts requests whose caller abandoned the wait.
	CancelledWaits uint64 `json:"cancelled_waits"`
	// FailedFlushes counts flights whose SolveFunc returned a
	// whole-batch error.
	FailedFlushes uint64 `json:"failed_flushes"`
	// Shapes is the number of live per-N queues; Queues describes
	// each, ordered by N.
	Shapes int          `json:"shapes"`
	Queues []QueueStats `json:"queues"`
}

// Flushes returns the total flight count across causes.
func (s *Stats) Flushes() uint64 {
	return s.FlushesWatermark + s.FlushesDeadline + s.FlushesClose
}

// QueueStats describes one per-shape coalescing queue.
type QueueStats struct {
	// N is the queue's row count.
	N int `json:"n"`
	// Pending is the number of systems buffered in unflushed flights.
	Pending int `json:"pending"`
	// Flights is the number of unflushed flights (sealed plus the
	// open one, when non-empty).
	Flights int `json:"flights"`
}

// Stats snapshots the batcher. Safe to call concurrently with Solve
// and Close; it takes the registry lock then each queue lock (ranks
// 15 then 16).
func (b *Batcher[T]) Stats() Stats {
	s := Stats{
		Admitted:         b.admitted.Load(),
		AdmittedSystems:  b.admittedSystems.Load(),
		PendingSystems:   b.pendingSystems.Load(),
		FlushesWatermark: b.flushWatermark.Load(),
		FlushesDeadline:  b.flushDeadline.Load(),
		FlushesClose:     b.flushClose.Load(),
		FlushedSystems:   b.flushedSystems.Load(),
		PaddedSystems:    b.paddedSystems.Load(),
		MaxFlushSystems:  b.maxFlushSystems.Load(),
		Saturated:        b.saturated.Load(),
		CancelledWaits:   b.cancelledWaits.Load(),
		FailedFlushes:    b.failedFlushes.Load(),
	}
	b.mu.Lock()
	qs := make([]*queue[T], 0, len(b.queues))
	for _, q := range b.queues {
		qs = append(qs, q)
	}
	b.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].n < qs[j].n })
	s.Queues = make([]QueueStats, 0, len(qs))
	for _, q := range qs {
		st := QueueStats{N: q.n}
		q.mu.Lock()
		for _, f := range q.sealed {
			st.Pending += f.mb.Count
			st.Flights++
		}
		if q.cur != nil && q.cur.mb.Count > 0 {
			st.Pending += q.cur.mb.Count
			st.Flights++
		}
		q.mu.Unlock()
		s.Queues = append(s.Queues, st)
	}
	s.Shapes = len(s.Queues)
	return s
}
