package fleet

import (
	"time"

	"gputrid/internal/pool"
)

// Autoscaling. The scaler watches two interval load signals the router
// records between Ticks — how much work was routed (offered, in
// systems: direct requests weigh 1, megabatches their system count)
// and the peak concurrent in-flight count — and compares the larger of the
// two against the fleet's serving slots: the summed pool Capacity of
// every Active and Probation device (Deprioritized devices still serve
// but are not counted as capacity, which biases the fleet toward
// scaling *up* while a device is thermally throttled).
//
//	load/slots > scaleUpAt   → activate one Standby device
//	load/slots < scaleDownAt → drain one Active device to Standby
//
// Both directions respect ScaleCooldown (fleet-clock time) and the
// scaler never drops below MinActive nor scales past the devices that
// exist. One device per Tick, in each direction at most: watermark
// scaling oscillates if it reacts to its own transient, and the
// cooldown plus one-step moves are the standard damping.
// The autoscaler's load-per-slot watermarks: load is max(systems
// routed, peak weighted concurrency) since the last Tick, slots is the
// Active+Probation solver capacity.
const (
	scaleUpAt   = 1.5
	scaleDownAt = 0.25
)

func (c Config) scaleCooldown() time.Duration {
	if c.ScaleCooldown <= 0 {
		return time.Second
	}
	return c.ScaleCooldown
}

func (c Config) slotCapacity() int {
	if c.Pool.Capacity <= 0 {
		return pool.DefaultCapacity
	}
	return c.Pool.Capacity
}

// scaleLocked evaluates one autoscaling step (f.mu held by Tick) and
// resets the interval load signals.
func (f *Fleet) scaleLocked(now time.Time) {
	offered, peak := f.offeredInterval, f.peakInterval
	f.offeredInterval, f.peakInterval = 0, 0

	load := float64(offered)
	if p := float64(peak); p > load {
		load = p
	}

	serving := 0 // Active + Probation: counted capacity
	var standby, active *device
	for _, d := range f.devices {
		switch d.state {
		case StateActive, StateProbation:
			serving++
			// Scale-down victim: the highest-id Active device with the
			// least in-flight work (draining a busy device costs more).
			if d.state == StateActive &&
				(active == nil || d.inflight.Load() < active.inflight.Load() ||
					(d.inflight.Load() == active.inflight.Load() && d.id > active.id)) {
				active = d
			}
		case StateStandby:
			if standby == nil || d.id < standby.id {
				standby = d
			}
		}
	}
	if serving == 0 && standby != nil {
		// Every serving device is gone (mass cordon): reactivate
		// immediately, cooldown or not — availability beats damping.
		f.scaleUps.Add(1)
		f.lastScale = now
		f.reviveLocked(standby, StateActive, now)
		return
	}
	if now.Sub(f.lastScale) < f.cfg.scaleCooldown() {
		return
	}
	slots := float64(serving * f.cfg.slotCapacity())
	if slots == 0 {
		return
	}

	switch {
	case load/slots > scaleUpAt && standby != nil:
		f.scaleUps.Add(1)
		f.lastScale = now
		f.reviveLocked(standby, StateActive, now)
	case load/slots < scaleDownAt && serving > f.cfg.minActive() && active != nil:
		f.scaleDowns.Add(1)
		f.lastScale = now
		f.cordonLocked(active, StateStandby, now)
	}
}
