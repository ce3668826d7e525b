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

// LinkFaultKind enumerates the gray interconnect failures the injector
// models. None of them kill a device: a faulted link corrupts payloads,
// loses packets, or stalls — the device at either end keeps computing
// correctly, which is exactly why these failures escape fail-stop
// detection and need end-to-end integrity checks.
type LinkFaultKind int

const (
	// LinkCorrupt delivers the transfer on time but with a silently
	// corrupted payload. The transfer itself reports success; only an
	// end-to-end check (the solver's ABFT sum checks) can catch it.
	LinkCorrupt LinkFaultKind = iota
	// LinkDrop loses the transfer; the modeled DMA layer retries it, so
	// the payload arrives intact but the transfer is charged the
	// retried attempts' time too.
	LinkDrop
	// LinkDelay delivers the transfer intact but late — a congested or
	// flapping link — multiplying the modeled transfer time.
	LinkDelay

	numLinkFaultKinds = 3
)

// String names the kind.
func (k LinkFaultKind) String() string {
	switch k {
	case LinkCorrupt:
		return "corrupt"
	case LinkDrop:
		return "drop"
	case LinkDelay:
		return "delay"
	default:
		return fmt.Sprintf("linkfault(%d)", int(k))
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
	// Kind is the fault to inject.
	Kind LinkFaultKind
	// Repeat is how many consecutive transfers of the site keep
	// faulting before the link heals; 0 applies the injector default.
	Repeat int
}

// MatchAny is the wildcard value for ScheduledLinkFault.From/To: it
// matches any endpoint, including the host (-1).
const MatchAny = -2

// LinkInjector is a seeded, schedulable source of gray interconnect
// faults, the link-plane sibling of Injector. Whether a transfer faults
// is a pure function of (Seed, op, from, to, per-site sequence number)
// — never of wall-clock time or goroutine scheduling — so a given
// injector reproduces exactly the same fault sites and the same charged
// penalties on every run, and a re-exchanged transfer redraws
// deterministically at the next sequence number (the transient-fault
// model: flaky links heal).
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
	// Kinds is drawn from for rate faults; empty means all kinds.
	Kinds []LinkFaultKind
	// Devices, when non-empty, restricts rate faults to transfers with
	// at least one endpoint in the set — modeling one device's flaky
	// link rather than fabric-wide noise. Scheduled faults carry their
	// own endpoint matchers and ignore this.
	Devices []int
	// Repeat is how many consecutive transfers of a faulted site keep
	// faulting before the link heals; 0 means 1.
	Repeat int
	// DelayFactor multiplies the modeled time of delayed transfers;
	// values <= 1 mean the default of 4.
	DelayFactor float64
	// DropRetries is how many lost attempts a dropped transfer is
	// charged before the delivery succeeds; 0 means 1.
	DropRetries int
	// Schedule lists explicit faults, matched before the rate draw.
	Schedule []ScheduledLinkFault
	// Gate dynamically arms and disarms the injector, exactly like
	// Injector.Gate. Must be safe for concurrent use; nil means always
	// armed.
	Gate func() bool
}

func (in *LinkInjector) repeat() int {
	if in.Repeat <= 0 {
		return 1
	}
	return in.Repeat
}

func (in *LinkInjector) delayFactor() float64 {
	if in.DelayFactor <= 1 {
		return 4
	}
	return in.DelayFactor
}

func (in *LinkInjector) dropRetries() int {
	if in.DropRetries <= 0 {
		return 1
	}
	return in.DropRetries
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

// At decides whether the seq-th transfer of site (op, from, to) faults,
// and with which kind. It is safe for concurrent use.
func (in *LinkInjector) At(op LinkOp, from, to, seq int) (LinkFaultKind, bool) {
	if in == nil {
		return 0, false
	}
	if in.Gate != nil && !in.Gate() {
		return 0, false
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
		rep := f.Repeat
		if rep <= 0 {
			rep = in.repeat()
		}
		if f.Index >= 0 || seq < rep {
			return f.Kind, true
		}
		return 0, false
	}
	if in.Rate <= 0 || !in.touches(from, to) {
		return 0, false
	}
	h := linkSiteHash(in.Seed, op, from, to, seq)
	if float64(h>>11)/(1<<53) >= in.Rate {
		return 0, false
	}
	if len(in.Kinds) == 0 {
		return LinkFaultKind(num.Mix64(h) % numLinkFaultKinds), true
	}
	return in.Kinds[num.Mix64(h)%uint64(len(in.Kinds))], true
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

// TransferReport describes one modeled transfer after link-fault
// injection: its total charged time and what the link did to it. A
// Corrupt report means the payload arrived silently damaged — the
// transfer layer itself reports success, and only the caller's
// end-to-end integrity check can notice.
type TransferReport struct {
	// Seconds is the total modeled time charged, including retried
	// drops and delay inflation.
	Seconds float64
	// Drops is how many lost attempts preceded the delivery.
	Drops int
	// Delayed reports the transfer was slowed by a delay fault.
	Delayed bool
	// Corrupt reports the payload arrived corrupted.
	Corrupt bool
}
