package fleet

import (
	"fmt"
	"sync"

	"gputrid/internal/core"
	"gputrid/internal/gpusim"
	"gputrid/internal/num"
)

// GrayPolicy tunes the fleet's gray-failure detector. Gray failures
// are the ones no driver event announces: a device that computes
// correct answers slowly (silent straggler), or an interconnect that
// keeps corrupting transfers which the solver's end-to-end integrity
// checks catch and repair (flaky link). Both are invisible to the
// XID/ECC health machinery — the only evidence is statistical, spread
// across distributed-solve reports — so the fleet watches those
// reports and *synthesizes* HealthStraggler / HealthLinkFlaky events
// into its own feed, where the ordinary cordon/drain policy takes
// over. The zero value is the production default.
type GrayPolicy struct {
	// IntegrityLimit is the cumulative integrity-retry count
	// (checksum-mismatched transfers re-exchanged by the solver) past
	// which a device's link is declared flaky; 0 means 4, negative
	// disables the link check.
	IntegrityLimit int
}

// The straggler test's fixed parameters.
const (
	// stragglerRatio is the EWMA per-slab modeled-latency ratio
	// (device vs. fleet median) past which a device is declared a
	// straggler.
	stragglerRatio = 2.5
	// grayAlpha is the EWMA smoothing factor: the weight of the newest
	// solve.
	grayAlpha = 0.4
	// minSamples is how many distributed solves a device must appear
	// in before its ratio is trusted — one outlier solve (cold cache,
	// unlucky slab mix) must not cordon a healthy device.
	minSamples = 2
)

func (p GrayPolicy) integrityLimit() int {
	switch {
	case p.IntegrityLimit == 0:
		return 4
	case p.IntegrityLimit < 0:
		return 1 << 30
	default:
		return p.IntegrityLimit
	}
}

// grayDev is the detector's per-device evidence.
type grayDev struct {
	// ratio is the smoothed per-slab modeled-latency ratio vs. the
	// fleet median; ratio.N counts the solves it aggregates.
	ratio num.EWMA
	// integrity and hedged accumulate the device's integrity retries
	// and hedged-away slabs across solves.
	integrity int
	hedged    int
	// stragglerSent / flakySent latch the synthesized events: the
	// evidence keeps accumulating while the device drains, and one
	// cordon per diagnosis is enough. reset() (device revival) clears
	// them so a healed device is judged on fresh evidence.
	stragglerSent bool
	flakySent     bool
}

// grayDetector folds distributed-solve reports into per-device
// gray-failure evidence. It has its own lock (acquired from the data
// plane on every distributed solve, and briefly by Stats) so the
// fleet's control-plane mutex never serializes solves.
type grayDetector struct {
	mu   sync.Mutex //tridlint:lockrank 30
	devs map[int]*grayDev
}

func (g *grayDetector) dev(id int) *grayDev {
	if g.devs == nil {
		g.devs = make(map[int]*grayDev)
	}
	d := g.devs[id]
	if d == nil {
		d = &grayDev{}
		g.devs[id] = d
	}
	return d
}

// reset clears a device's evidence and latches; called when the
// device is revived with a fresh pool, since the old diagnosis
// belongs to the hardware state that was reset away.
func (g *grayDetector) reset(id int) {
	g.mu.Lock()
	delete(g.devs, id)
	g.mu.Unlock()
}

// observeGray folds one distributed solve's per-device observations
// into the detector and synthesizes health events for devices whose
// evidence crosses the policy thresholds. Topology device indices are
// fleet device ids (the distributed plane maps them one to one), so
// synthesized events land on the right failure domain.
func (f *Fleet) observeGray(rep *core.DistReport) {
	if len(rep.PerDevice) == 0 {
		return
	}

	// Per-slab modeled busy time normalizes away uneven slab counts:
	// a device holding 3 slabs is busier, not slower. The fleet
	// median is the baseline — with most devices healthy it tracks
	// true speed, and a single straggler cannot drag it.
	perSlab := make(map[int]float64, len(rep.PerDevice))
	var sample []float64
	for _, o := range rep.PerDevice {
		if o.Slabs > 0 && o.ModeledBusy > 0 {
			v := o.ModeledBusy / float64(o.Slabs)
			perSlab[o.Device] = v
			sample = append(sample, v)
		}
	}
	median := num.Median(sample)

	var fire []gpusim.HealthEvent

	f.gray.mu.Lock()
	for _, o := range rep.PerDevice {
		g := f.gray.dev(o.Device)
		if v, ok := perSlab[o.Device]; ok && median > 0 && len(sample) >= 2 {
			g.ratio.Add(v/median, grayAlpha)
		}
		g.integrity += o.IntegrityRetries
		g.hedged += o.Hedged

		if !g.stragglerSent && g.ratio.N >= minSamples && g.ratio.V >= stragglerRatio {
			g.stragglerSent = true
			f.grayStragglers.Add(1)
			fire = append(fire, gpusim.HealthEvent{
				Device: o.Device, Kind: gpusim.HealthStraggler,
				Message: fmt.Sprintf("modeled per-slab latency %.1fx fleet median over %d solves", g.ratio.V, g.ratio.N),
			})
		}
		if !g.flakySent && g.integrity >= f.cfg.Gray.integrityLimit() {
			g.flakySent = true
			f.grayFlaky.Add(1)
			fire = append(fire, gpusim.HealthEvent{
				Device: o.Device, Kind: gpusim.HealthLinkFlaky,
				Message: fmt.Sprintf("%d integrity retries on this device's transfers", g.integrity),
			})
		}
	}
	f.gray.mu.Unlock()

	// Inject outside the detector lock; the next Tick cordons.
	for _, ev := range fire {
		f.Inject(ev)
	}
}

// graySnapshot copies a device's current evidence for Stats.
func (f *Fleet) graySnapshot(id int) DeviceGray {
	f.gray.mu.Lock()
	defer f.gray.mu.Unlock()
	g := f.gray.devs[id]
	if g == nil {
		return DeviceGray{}
	}
	return DeviceGray{LatencyRatio: g.ratio.V, IntegrityRetries: g.integrity, Hedged: g.hedged}
}
