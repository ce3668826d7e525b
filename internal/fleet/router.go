package fleet

import "gputrid"

// pick selects the best untried servable device and marks it in the
// caller's tried-bitmask. Selection is a strict preference order:
//
//  1. tier — Active and Probation devices first, thermally
//     Deprioritized devices only when no device of the first tier is
//     available (they compute correctly but slowly);
//  2. breaker — within a tier, devices whose circuit breaker is closed
//     (device path healthy) beat devices serving off their CPU
//     fallback;
//  3. load — least weighted work in flight. The unit is *systems*,
//     not requests: a direct request weighs 1, a coalesced megabatch
//     weighs its system count (weight), so the router does not treat
//     a device holding a 48-system flight as idle. The count covers
//     both pool-queued and solving work, since the fleet's in-flight
//     span covers the pool admission wait;
//  4. rotation — full ties break round-robin: each pick starts its
//     scan one device further along, so a serial request stream (loads
//     all zero by the time the next request arrives) still spreads
//     across the healthy devices instead of pinning the lowest id.
//
// It also feeds the autoscaler's load signals: requests routed this
// interval, and the peak concurrent in-flight count.
//
// The chosen device's in-flight count is incremented by weight *here,
// under the fleet lock* — not by the caller afterwards — so a burst
// of concurrent picks each sees the loads its predecessors created
// and the burst spreads across equally-loaded devices instead of
// piling onto the lowest id. The caller owns the matching decrement
// (of the same weight) once the solve finishes. The backend is
// returned as a value captured under the lock: a concurrent cordon
// nils d.backend, so the caller must never re-read it.
func (f *Fleet) pick(tried *uint64, weight int64) (*device, Backend, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, nil, ErrFleetClosed
	}

	var best *device
	var bestKey routeKey
	for i := 0; i < len(f.devices); i++ {
		d := f.devices[(f.rr+i)%len(f.devices)]
		if *tried&(1<<uint(d.id)) != 0 || !d.state.servable() || d.backend == nil {
			continue
		}
		key := routeKey{
			deprioritized: d.state == StateDeprioritized,
			breakerOpen:   d.backend.Breaker().State != gputrid.BreakerClosed,
			load:          d.inflight.Load(),
		}
		// Strict less: among equal keys the first device in rotated
		// scan order wins, which is what makes ties round-robin.
		if best == nil || key.less(bestKey) {
			best, bestKey = d, key
		}
	}
	f.rr++
	if best == nil {
		return nil, nil, ErrNoDevices
	}
	*tried |= 1 << uint(best.id)

	best.inflight.Add(weight)
	f.chargeLocked(weight)
	return best, best.backend, nil
}

// chargeLocked is the one admission charge, pick's and
// admitDistributed's: it counts weight offered systems into the
// scaler's interval and into the fleet's in-flight total, raising the
// interval's peak. The caller holds f.mu and owns the matching
// inflightTotal decrement.
func (f *Fleet) chargeLocked(weight int64) {
	f.offeredInterval += int(weight)
	if cur := f.inflightTotal.Add(weight); cur > f.peakInterval {
		f.peakInterval = cur
	}
}

// routeKey orders routing candidates; less = strictly preferred (full
// ties resolve by rotated scan order in pick).
type routeKey struct {
	deprioritized bool
	breakerOpen   bool
	load          int64
}

func (a routeKey) less(b routeKey) bool {
	if a.deprioritized != b.deprioritized {
		return !a.deprioritized
	}
	if a.breakerOpen != b.breakerOpen {
		return !a.breakerOpen
	}
	return a.load < b.load
}
