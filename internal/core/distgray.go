package core

// Gray-failure tolerance for the distributed solver: end-to-end
// integrity verification of every interconnect transfer, an escalation
// ladder for transfers that stay corrupt, and hedged re-execution of
// straggling slabs. The fail-stop plane (device death → migration) in
// distributed.go assumes errors announce themselves; this file handles
// the failures that don't — links that silently corrupt, drop, or
// stall payloads, and devices that silently slow down.

import (
	"context"
	"errors"
	"math"

	"gputrid/internal/gpusim"
	"gputrid/internal/num"
)

// errLinkIntegrity reports a transfer whose payload stayed corrupt
// past the full re-exchange budget: the link, not the device, is the
// failure domain, so it must NOT classify as device death (the device
// keeps serving its other slabs) — the slab degrades to the host path
// instead.
var errLinkIntegrity = errors.New("core: transfer stayed corrupt past the re-exchange budget")

// reexchangeBudget is how many times a checksum-mismatched transfer is
// re-exchanged (per escalation rung) before the ladder escalates.
const reexchangeBudget = 2

// HedgePolicy controls the speculative re-execution of straggling
// slabs: a slab whose modeled phase time exceeds hedgeRatio × the
// median over device-run slabs is hedged. The zero value enables it.
type HedgePolicy struct {
	// Disable turns hedging off entirely.
	Disable bool
}

// hedgeRatio is the straggler threshold as a multiple of the median
// modeled phase time.
const hedgeRatio = 3

// DeviceObservation is what one distributed solve observed about one
// topology device — the raw signal a gray-failure detector aggregates
// across solves. Every slab execution is recorded against the device
// that ran it, including executions later hedged away, so a silent
// straggler stays visible even when hedging hides it from the makespan.
type DeviceObservation struct {
	// Device is the topology device index.
	Device int
	// Slabs is how many slab-phase executions the device ran.
	Slabs int
	// ModeledBusy is the total modeled seconds of those executions
	// (upload + compute + download, fault penalties included).
	ModeledBusy float64
	// IntegrityRetries counts checksum-mismatched transfers on this
	// device's links that were re-exchanged.
	IntegrityRetries int
	// Hedged counts slabs hedged away from this device (the speculative
	// re-run won).
	Hedged int
}

// devObs is the under-construction observation for one device.
type devObs struct {
	slabs     int
	busy      float64
	integrity int
	hedged    int
}

// noteBusy records one slab-phase execution on dev.
func (s *DistSolver[T]) noteBusy(dev int, seconds float64) {
	s.obsMu.Lock()
	o := &s.devs[dev].obs
	o.slabs++
	o.busy += seconds
	s.obsMu.Unlock()
}

// noteIntegrity records n integrity retries against dev's links.
func (s *DistSolver[T]) noteIntegrity(sl *distSlab, dev, n int) {
	sl.integrity += n
	s.obsMu.Lock()
	s.devs[dev].obs.integrity += n
	s.obsMu.Unlock()
}

// noteHedged records a slab hedged away from dev.
func (s *DistSolver[T]) noteHedged(dev int) {
	s.obsMu.Lock()
	s.devs[dev].obs.hedged++
	s.obsMu.Unlock()
}

// observations snapshots the observations of every device the solve
// touched, sorted by device.
func (s *DistSolver[T]) observations() []DeviceObservation {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	out := make([]DeviceObservation, 0, len(s.devs))
	for dev := range s.devs {
		if o := s.devs[dev].obs; o != (devObs{}) {
			out = append(out, DeviceObservation{
				Device: dev, Slabs: o.slabs, ModeledBusy: o.busy,
				IntegrityRetries: o.integrity, Hedged: o.hedged,
			})
		}
	}
	return out
}

// sumParts is the ABFT checksum: the plain serial float64 sum of the
// payload elements, added in order to s (0 before a payload's first
// part). A corrupted payload (poisoned to NaN by the modeled link)
// makes the sums mismatch — NaN compares unequal to everything,
// including itself — so corruption detection is exact. The order is
// part of the verdict: a reordered sum can turn ±Inf terms that now
// sum to NaN into a finite or infinite sum, and so a blind transfer
// into a verified one.
func sumParts[T num.Real](s float64, parts ...[]T) float64 {
	for _, p := range parts {
		for _, v := range p {
			s += float64(v)
		}
	}
	return s
}

// verifiedUp moves a payload whose source of truth stays host-side
// (coefficient uploads, separator values) over the link with checksum
// verification: a corrupted delivery re-exchanges the transfer — each
// retry redraws the link-fault schedule at the next per-site sequence
// number, the transient-link model. The host copy is canonical, so a
// corrupted delivery costs only the retry; nothing needs restoring.
// Returns the total modeled seconds charged (retries included) and
// errLinkIntegrity when the link stayed corrupt past the budget.
//
// sum is the payload's sumParts checksum, which only a corrupt
// delivery reads: a clean delivery's recomputed sum is the sender's,
// so it passes whatever the sum is. sum is called on the first corrupt
// delivery, and a NaN there means the payload legitimately contains
// NaN and the check is blind: the delivery stands unverified rather
// than loop on a false mismatch, exactly as if the sum had been taken
// before sending. A fault-free solve never sums its uploads.
func (s *DistSolver[T]) verifiedUp(sl *distSlab, dev int, bytes int64, sum func() float64) (float64, error) {
	var secs float64
	for attempt := 0; ; attempt++ {
		rep := s.topo.Transfer(&s.scope, gpusim.OpHostToDevice, -1, dev, bytes)
		secs += rep.Seconds
		if !rep.Corrupt {
			return secs, nil
		}
		// The device-side copy arrived damaged; its recomputed sum
		// cannot match the sender's, unless the sender's is NaN too.
		if attempt == 0 {
			if want := sum(); want != want {
				return secs, nil
			}
		}
		s.noteIntegrity(sl, dev, 1)
		if attempt >= reexchangeBudget {
			return secs, errLinkIntegrity
		}
	}
}

// verifiedDown moves computed results from device dev into the
// host-side payload buffer with checksum verification. The device copy
// is the source of truth (modeled by the shadow snapshot taken before
// the first attempt): a corrupting link really does poison the host
// buffer, the sum check really does catch it, and the re-exchange
// restores from the device copy — corrupted data is provably present
// and provably never escapes.
func (s *DistSolver[T]) verifiedDown(sl *distSlab, dev int, bytes int64, payload, shadow []T) (float64, error) {
	want := sumParts(0, payload)
	if want != want {
		return s.topo.Transfer(&s.scope, gpusim.OpDeviceToHost, dev, -1, bytes).Seconds, nil
	}
	copy(shadow, payload)
	var secs float64
	for attempt := 0; ; attempt++ {
		rep := s.topo.Transfer(&s.scope, gpusim.OpDeviceToHost, dev, -1, bytes)
		secs += rep.Seconds
		if rep.Corrupt {
			// A corrupting link does the loudest possible damage, so an
			// escaped corruption can never pass for a plausible value.
			fill(payload, T(math.NaN()))
		}
		if got := sumParts(0, payload); got == want {
			return secs, nil
		}
		s.noteIntegrity(sl, dev, 1)
		if attempt >= reexchangeBudget {
			return secs, errLinkIntegrity
		}
		copy(payload, shadow)
	}
}

// hedgePhase runs after phase A: slabs whose modeled completion is a
// latency outlier versus their peers (> hedgeRatio × median) are
// speculatively re-executed on the least-loaded survivor, and the
// verified result with the smaller modeled completion wins — in this
// simulator, modeled time is the latency plane, so "first verified
// result" means first in modeled time. The loser's result is
// discarded. Output bits are unaffected either way — the launch
// geometry is a pure function of (N, Slabs), so both candidates
// compute identical data and hedging only moves *where* (and how fast)
// it happened.
func (s *DistSolver[T]) hedgePhase(ctx context.Context, rep *DistReport) error {
	if s.cfg.Hedge.Disable || s.nLive < 2 {
		return nil
	}

	// Outlier detection over the modeled phase times of device-run slabs.
	times := s.times[:0]
	for p := range s.slabs {
		if sl := &s.slabs[p]; sl.dev >= 0 {
			times = append(times, sl.timing.Total())
		}
	}
	if len(times) < 2 {
		return nil
	}
	median := num.Median(times)
	threshold := hedgeRatio * median
	if median <= 0 {
		return nil
	}

	for p := range s.slabs {
		sl := &s.slabs[p]
		if sl.dev < 0 || sl.timing.Total() <= threshold {
			continue
		}
		// Least-loaded survivor by current modeled load (hedge adoptions
		// move load, so recompute per outlier); ties go to the lowest
		// index — deterministic either way.
		for dev := range s.devs {
			s.devs[dev].load = 0
		}
		for q := range s.slabs {
			if other := &s.slabs[q]; other.dev >= 0 {
				s.devs[other.dev].load += other.timing.Total()
			}
		}
		target := -1
		for dev := range s.devs {
			if !s.devs[dev].alive || dev == sl.dev {
				continue
			}
			if target < 0 || s.devs[dev].load < s.devs[target].load {
				target = dev
			}
		}
		if target < 0 {
			return nil
		}
		rep.Hedges++
		if err := s.hedgeOne(ctx, rep, sl, target); err != nil {
			return err
		}
	}
	return nil
}

// hedgeOne runs one speculative re-execution of slab sl on device
// target, on the calling goroutine, and races it in modeled time
// against the (already verified) incumbent result. The speculative run
// works entirely in scratch buffers, so losing costs nothing. Any
// speculative failure — integrity exhaustion, even the target dying —
// leaves the incumbent standing; a target death still goes through
// kill like any other. A solve cancelled mid-hedge returns
// ErrCancelled.
func (s *DistSolver[T]) hedgeOne(ctx context.Context, rep *DistReport, sl *distSlab, target int) error {
	if hook := s.testHookHedgeStart; hook != nil {
		hook()
	}
	spec := &s.hedgeSlab
	*spec = distSlab{idx: sl.idx, dev: target, homeDev: -1}
	L := s.part.Slabs[sl.idx].Len()
	err := s.reduceSlab(ctx, spec, target, s.hedgeX[:3*s.m*L], s.hedgeIface, s.hedgeShadow)
	if ctx != nil && ctx.Err() != nil {
		rep.HedgesCancelled++
		return cancelled(ctx.Err())
	}
	sl.integrity += spec.integrity

	if err != nil {
		rep.HedgesCancelled++
		if isDeviceDeath(err) {
			s.kill(rep, target)
		}
		return nil
	}
	if spec.timing.Total() < sl.timing.Total() {
		// Speculative result completes first in modeled time: adopt it.
		// The data is bitwise identical by construction; what changes is
		// the slab's home device and the modeled makespan.
		p := sl.idx
		copy(s.slabX[p], s.hedgeX[:3*s.m*L])
		copy(s.iface[p], s.hedgeIface)
		s.noteHedged(sl.dev)
		sl.dev = target
		sl.timing = spec.timing
		rep.HedgeWins++
	} else {
		rep.HedgesCancelled++
	}
	return nil
}
