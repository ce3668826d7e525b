package gpusim

import (
	"fmt"

	"gputrid/internal/num"
)

// LinkOp names the host-link direction a transfer moves in, the first
// coordinate of a link-fault site. Unlike kernel faults (keyed on
// kernel/block), link faults are keyed on what moved where.
type LinkOp int

const (
	// OpHostToDevice is a host→device upload (From is -1, To the device).
	OpHostToDevice LinkOp = iota
	// OpDeviceToHost is a device→host download (From the device, To -1).
	OpDeviceToHost
)

// String names the op.
func (op LinkOp) String() string {
	switch op {
	case OpHostToDevice:
		return "h2d"
	case OpDeviceToHost:
		return "d2h"
	default:
		return fmt.Sprintf("linkop(%d)", int(op))
	}
}

// ScheduledLinkFault pins a link fault to explicit coordinates, for
// tests and scenarios that need a specific transfer to fail
// deterministically.
type ScheduledLinkFault struct {
	// Op matches the transfer's operation; negative matches any.
	Op LinkOp
	// From and To match the transfer's endpoints (-1 in a transfer means
	// the host); a matcher value below -1 matches any endpoint.
	From, To int
	// Index matches the per-site transfer sequence number; negative
	// matches any.
	Index int
	// Repeat is how many consecutive transfers of the site keep
	// corrupting before the link heals; 0 means 1.
	Repeat int
}

// MatchAny is the wildcard value for ScheduledLinkFault.From/To: it
// matches any endpoint, including the host (-1).
const MatchAny = -2

// LinkInjector is a seeded, schedulable source of silent link
// corruption, the link-plane sibling of Injector. A corrupted transfer
// arrives on time and reports success, but its payload is damaged: the
// device at either end keeps computing correctly, which is exactly why
// the fault escapes fail-stop detection and needs the solver's
// end-to-end sum checks. Whether a transfer corrupts is a pure function
// of (Seed, op, from, to, per-site sequence number) — never of
// wall-clock time or goroutine scheduling — so a given injector
// reproduces exactly the same fault sites on every run, and a
// re-exchanged transfer redraws deterministically at the next sequence
// number (the transient-fault model: flaky links heal).
//
// Faults come from the explicit Schedule first, then a seeded per-site
// Bernoulli draw at probability Rate, optionally restricted to
// transfers touching Devices. Attach to Topology.Links before solving.
// The zero value injects nothing.
type LinkInjector struct {
	// Seed drives every pseudo-random decision.
	Seed uint64
	// Rate is the per-transfer fault probability in [0, 1].
	Rate float64
	// Devices, when non-empty, restricts rate faults to transfers with
	// at least one endpoint in the set — modeling one device's flaky
	// link rather than fabric-wide noise. Scheduled faults carry their
	// own endpoint matchers and ignore this.
	Devices []int
	// Schedule lists explicit faults, matched before the rate draw.
	Schedule []ScheduledLinkFault
}

// touches reports whether the rate-fault device filter admits the
// transfer.
func (in *LinkInjector) touches(from, to int) bool {
	if len(in.Devices) == 0 {
		return true
	}
	for _, d := range in.Devices {
		if d == from || d == to {
			return true
		}
	}
	return false
}

// At reports whether the seq-th transfer of site (op, from, to)
// arrives corrupted. It is safe for concurrent use.
func (in *LinkInjector) At(op LinkOp, from, to, seq int) bool {
	if in == nil {
		return false
	}
	for _, f := range in.Schedule {
		if f.Op >= 0 && f.Op != op {
			continue
		}
		if f.From > MatchAny && f.From != from {
			continue
		}
		if f.To > MatchAny && f.To != to {
			continue
		}
		if f.Index >= 0 && f.Index != seq {
			continue
		}
		return f.Index >= 0 || seq < max(f.Repeat, 1)
	}
	if in.Rate <= 0 || !in.touches(from, to) {
		return false
	}
	h := linkSiteHash(in.Seed, op, from, to, seq)
	return float64(h>>11)/(1<<53) < in.Rate
}

// linkSiteHash hashes the transfer coordinates through the same
// splitmix avalanche the kernel-fault injector uses.
func linkSiteHash(seed uint64, op LinkOp, from, to, seq int) uint64 {
	h := num.Mix64(seed ^ 0xA5A5A5A55A5A5A5A)
	h = num.Mix64(h ^ uint64(op)*0x9E3779B97F4A7C15 + 1)
	h = num.Mix64(h ^ uint64(int64(from))*0xBF58476D1CE4E5B9 + 2)
	h = num.Mix64(h ^ uint64(int64(to))*0x94D049BB133111EB + 3)
	return num.Mix64(h ^ uint64(seq))
}
