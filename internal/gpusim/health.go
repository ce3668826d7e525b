package gpusim

import (
	"fmt"
	"sync"
	"time"
)

// HealthKind enumerates the typed device health events a fleet control
// plane consumes, modeled on the event families a real GPU manager
// surfaces (DCGM health watches): XID driver errors, thermal
// throttling, ECC activity, and recovery. Unlike FaultKind — which
// models *per-launch* transient data faults the retry layer repairs —
// health events are *device-level* control-plane signals: they say
// nothing about any one solve and everything about whether the device
// should keep receiving traffic.
type HealthKind int

const (
	// HealthXID is a fatal driver/device error (e.g. XID 79, "GPU has
	// fallen off the bus"). Policy: cordon the device and drain it.
	HealthXID HealthKind = iota
	// HealthThermal is a thermal-throttle notification: the device
	// still computes correctly but slowly. Policy: deprioritize in
	// routing until a HealthHealed event clears it.
	HealthThermal
	// HealthECCCorrected is a corrected (single-bit) ECC event: no data
	// was harmed, but sustained correction pressure predicts
	// uncorrectable errors. Policy: count; cordon past a threshold.
	HealthECCCorrected
	// HealthECCUncorrected is an uncorrectable (multi-bit) ECC error —
	// fatal for serving. Policy: cordon and drain, like HealthXID.
	HealthECCUncorrected
	// HealthHealed reports the device recovered (reset completed,
	// temperature normal). Policy: uncordon into probation.
	HealthHealed
	// HealthLinkFlaky reports a gray interconnect: the device's link
	// keeps corrupting transfers (caught by end-to-end
	// integrity checks, so no data was served wrong — but every retry
	// burns latency and the link is untrustworthy). Synthesized by the
	// fleet's gray-failure detector, never by the driver. Policy:
	// cordon and drain, like HealthXID.
	HealthLinkFlaky
	// HealthStraggler reports a silent slowdown: the device computes
	// correctly but consistently slower than its peers (EWMA latency
	// ratio past threshold), dragging every distributed solve it joins.
	// Synthesized by the fleet's gray-failure detector. Policy: cordon
	// and drain.
	HealthStraggler
)

// String names the kind.
func (k HealthKind) String() string {
	switch k {
	case HealthXID:
		return "xid"
	case HealthThermal:
		return "thermal"
	case HealthECCCorrected:
		return "ecc-corrected"
	case HealthECCUncorrected:
		return "ecc-uncorrected"
	case HealthHealed:
		return "healed"
	case HealthLinkFlaky:
		return "link-flaky"
	case HealthStraggler:
		return "straggler"
	default:
		return fmt.Sprintf("health(%d)", int(k))
	}
}

// ParseHealthKind parses the String form back into a kind (scenario
// files and the HTTP injection endpoint speak the string names).
func ParseHealthKind(s string) (HealthKind, error) {
	for k := HealthXID; k <= HealthStraggler; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("gpusim: unknown health kind %q", s)
}

// HealthSeverity buckets kinds by the policy response they demand.
type HealthSeverity int

const (
	// SeverityFatal: the device must stop receiving traffic (cordon).
	SeverityFatal HealthSeverity = iota
	// SeverityDegraded: the device serves correctly but should be
	// avoided when healthier peers exist.
	SeverityDegraded
	// SeverityInfo: bookkeeping only (corrected ECC below threshold).
	SeverityInfo
	// SeverityRecovery: the device may return to service.
	SeverityRecovery
)

// String names the severity.
func (s HealthSeverity) String() string {
	switch s {
	case SeverityFatal:
		return "fatal"
	case SeverityDegraded:
		return "degraded"
	case SeverityInfo:
		return "info"
	case SeverityRecovery:
		return "recovery"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Severity maps a kind to its policy bucket. HealthECCCorrected is
// SeverityInfo — single corrected events are normal background noise;
// the *accumulated count* is what escalates, and that policy lives in
// the consumer (the fleet controller), not here.
func (k HealthKind) Severity() HealthSeverity {
	switch k {
	case HealthXID, HealthECCUncorrected, HealthLinkFlaky, HealthStraggler:
		return SeverityFatal
	case HealthThermal:
		return SeverityDegraded
	case HealthHealed:
		return SeverityRecovery
	default:
		return SeverityInfo
	}
}

// HealthEvent is one typed device health observation.
type HealthEvent struct {
	// Device is the fleet index of the device the event concerns.
	Device int
	// Kind is what happened.
	Kind HealthKind
	// XID carries the driver error code for HealthXID events (79 =
	// fallen off the bus, 48 = double-bit ECC, ...); 0 otherwise.
	XID int
	// Temp carries the observed temperature (°C) for HealthThermal
	// events; 0 otherwise.
	Temp float64
	// Message is a free-form human-readable description.
	Message string
	// Time is when the event was observed. Producers stamp it from
	// their clock — the fleet's virtual clock in deterministic
	// scenarios, wall clock in live serving — never from time.Now
	// inside this package, so replays are exact.
	Time time.Time
}

// String formats the event for logs.
func (e HealthEvent) String() string {
	s := fmt.Sprintf("device %d: %s", e.Device, e.Kind)
	switch {
	case e.Kind == HealthXID && e.XID != 0:
		s += fmt.Sprintf(" %d", e.XID)
	case e.Kind == HealthThermal && e.Temp != 0:
		s += fmt.Sprintf(" %.0f°C", e.Temp)
	}
	if e.Message != "" {
		s += " (" + e.Message + ")"
	}
	return s
}

// HealthFeed is the injectable health-event hook: producers (tests,
// scenario runners, an HTTP injection endpoint, or solve paths that
// synthesize ECC events from fault reports) Inject events; the fleet
// controller Drains them at each control-loop tick. Events come out in
// exact injection order, so a scenario that injects a fixed sequence
// replays the same policy decisions every run. The zero value is ready
// to use; all methods are safe for concurrent use.
type HealthFeed struct {
	mu       sync.Mutex
	pending  []HealthEvent
	injected uint64
}

// Inject appends one event to the feed.
func (f *HealthFeed) Inject(ev HealthEvent) {
	f.mu.Lock()
	f.pending = append(f.pending, ev)
	f.injected++
	f.mu.Unlock()
}

// Drain returns every pending event in injection order and clears the
// feed. It returns nil when nothing is pending.
func (f *HealthFeed) Drain() []HealthEvent {
	f.mu.Lock()
	evs := f.pending
	f.pending = nil
	f.mu.Unlock()
	return evs
}

// Pending reports the number of undrained events.
func (f *HealthFeed) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pending)
}

// Injected reports the cumulative number of injected events.
func (f *HealthFeed) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}
