// Package scenario makes fleet failure stories declarative and
// replayable: a YAML file describes a timeline of load profiles and
// injected device health events plus the assertions the run must
// satisfy ("device 1 dies at t=5s under 200 rps; zero incorrect
// responses; the device is back by the end"), and the runner replays
// it against a real fleet of simulated devices on a virtual clock —
// no wall-clock sleeps, so the same file produces the same control
// decisions every run, in tests, CI, and `tridserve -scenario`.
package scenario

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"gputrid/internal/gpusim"
)

// Scenario is one replayable fleet story.
type Scenario struct {
	// Name labels reports; defaults to the file name.
	Name string
	// Seed drives every pseudo-random choice: batch coefficients and
	// per-device fault-injector seeds.
	Seed uint64
	// Tick is the virtual control-loop step; Duration the total
	// virtual run time.
	Tick, Duration time.Duration
	// M, N is the (single) batch shape the scenario serves; Variants
	// distinct batches of that shape rotate through the load.
	M, N     int
	Variants int

	// Devices / InitialActive / MinActive size the fleet.
	Devices, InitialActive, MinActive int
	// Capacity and Queue configure each device's pool.
	Capacity, Queue int

	// Policy knobs (zero = fleet defaults).
	Probation, DrainTimeout, ScaleCooldown time.Duration

	// FaultRate, when positive, arms each device's deterministic
	// transient-fault injector (seeded per device, one-shot faults the
	// retry layer recovers exactly).
	FaultRate float64

	// Load is the offered-load timeline; phases may overlap (rates
	// add).
	Load []LoadPhase
	// Events is the health-event timeline, applied in `At` order.
	Events []Event

	// Distributed, when non-nil, launches one huge-N distributed solve
	// across the fleet's simulated interconnect fabric mid-run.
	Distributed *DistSpec

	// Gray, when non-nil, arms gray failures on the distributed fabric
	// (a silent straggler, a flaky link) and tunes the fleet's
	// gray-failure detector.
	Gray *GraySpec

	// Assert is evaluated after the run.
	Assert Assertions
}

// DistSpec is the scenario's distributed-solve stanza: one batch of
// shape M×N is solved across every servable device at virtual time At,
// with the listed topology devices armed to die permanently on their
// first kernel launch of the solve. The runner busy-waits until every
// armed death has surfaced in the health feed, then runs the control
// loop — so the cordon provably lands while the distributed solve is
// still in flight — and verifies the completed solution bitwise
// against a fault-free reference.
type DistSpec struct {
	// M, N shape the distributed batch; N should dwarf the serving
	// shape (that is the point of distributing).
	M, N int
	// At is the launch instant (virtual time).
	At time.Duration
	// Victims lists the topology devices armed to die mid-solve.
	Victims []int
	// Count launches that many distributed solves (sequentially, the
	// first at At, the rest Every apart); 0 means 1. Repeated solves
	// are how gray failures accumulate detectable evidence.
	Count int
	// Every spaces repeated solves; 0 means one solve per tick.
	Every time.Duration
}

func (ds *DistSpec) count() int {
	if ds.Count <= 0 {
		return 1
	}
	return ds.Count
}

// GraySpec arms gray failures — failures no driver event announces —
// on the distributed fabric, and tunes the link check of the detector
// that must catch them from statistical evidence alone.
type GraySpec struct {
	// Straggler, when >= 0, is the topology device silently slowed by
	// StragglerFactor (its modeled kernel time multiplies, no health
	// event fires, answers stay bit-exact).
	Straggler       int
	StragglerFactor float64
	// Flaky, when >= 0, is the device whose links corrupt transfers at
	// FlakyRate (seeded by the scenario seed; every corruption must be
	// caught by the solver's checksums and repaired in place).
	Flaky     int
	FlakyRate float64
	// IntegrityLimit is the detector's link threshold (zero = fleet
	// default, see fleet.GrayPolicy).
	IntegrityLimit int
}

// LoadPhase offers `RPS` requests per virtual second over [From, To).
type LoadPhase struct {
	From, To time.Duration
	RPS      float64
}

// Event injects one health event at virtual time At.
type Event struct {
	At      time.Duration
	Device  int
	Kind    gpusim.HealthKind
	XID     int
	Temp    float64
	Message string
}

// FinalState asserts a device's state at the end of the run; any of
// the listed states passes (e.g. "active|probation" when the exact
// probation expiry tick is not the point of the scenario).
type FinalState struct {
	Device int
	States []string
}

// Assertions are the scenario's pass/fail conditions. The zero value
// demands only correctness: MaxIncorrect is always 0 — a scenario can
// tolerate rejections, but never a wrong answer.
type Assertions struct {
	// MinServed is the minimum number of successfully served requests.
	MinServed int
	// MaxRejectedFrac bounds rejected/issued (unset = 1.0).
	MaxRejectedFrac float64
	rejectedSet     bool
	// Cordons / ScaleUps / ScaleDowns / ForcedDrains, when set, bound
	// the control-plane action counters.
	Cordons, MaxForcedDrains   *int
	MinScaleUps, MinScaleDowns int
	// MinRerouted, when set, demands at least that many re-routes
	// (proving the death actually happened under traffic).
	MinRerouted int
	// MinDistSolves demands at least that many completed distributed
	// solves; DistDeaths, when set, pins the exact number of devices
	// declared dead mid-distributed-solve; MinDistMigrations demands at
	// least that many slab migrations (proving the deaths cost live
	// work, not idle slabs).
	MinDistSolves     int
	DistDeaths        *int
	MinDistMigrations int
	// MinIntegrityRetries demands the corruption provably happened and
	// was repaired (checksum-mismatched transfers re-exchanged);
	// MinHedges demands the straggler provably triggered speculative
	// slab re-launches; MaxDistDegraded bounds slabs degraded to the
	// host path (unset = unbounded; 0 pins the bitwise-identity story).
	MinIntegrityRetries int
	MinHedges           int
	MaxDistDegraded     *int
	// CordonedBy demands each listed device was cordoned (or dead) no
	// later than the given control-loop tick — the detection-latency
	// bound on the gray-failure detector.
	CordonedBy []CordonDeadline
	// FinalStates pins device states at the end of the run.
	FinalStates []FinalState
}

// CordonDeadline is one detection-latency assertion: Device must have
// left the servable states by control-loop tick Tick (0-based).
type CordonDeadline struct {
	Device, Tick int
}

// Load reads and decodes a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sc.Name == "" {
		base := path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		sc.Name = strings.TrimSuffix(base, ".yaml")
	}
	return sc, nil
}

// Decode parses scenario YAML and applies defaults and validation.
func Decode(data []byte) (*Scenario, error) {
	root, lines, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	d := &decoder{lines: lines}
	top := d.section(root, "")

	sc := &Scenario{
		Name:     top.str("name", ""),
		Seed:     uint64(top.num("seed", 1)),
		Tick:     top.dur("tick", 100*time.Millisecond),
		Duration: top.dur("duration", 10*time.Second),
		Variants: top.num("variants", 4),
	}

	shape := d.section(top.child("shape"), "shape")
	sc.M = shape.num("m", 8)
	sc.N = shape.num("n", 64)

	dev := d.section(top.child("devices"), "devices")
	sc.Devices = dev.num("count", 3)
	sc.InitialActive = dev.num("initial", 0)
	sc.MinActive = dev.num("min_active", 0)

	pool := d.section(top.child("pool"), "pool")
	sc.Capacity = pool.num("capacity", 2)
	sc.Queue = pool.num("queue", 0)

	pol := d.section(top.child("policy"), "policy")
	sc.Probation = pol.dur("probation", 0)
	sc.DrainTimeout = pol.dur("drain_timeout", 0)
	sc.ScaleCooldown = pol.dur("scale_cooldown", 0)

	faults := d.section(top.child("faults"), "faults")
	sc.FaultRate = faults.flt("rate", 0)

	for i, item := range top.list("load") {
		ph := d.section(item, fmt.Sprintf("load[%d]", i))
		sc.Load = append(sc.Load, LoadPhase{
			From: ph.dur("from", 0),
			To:   ph.dur("to", sc.Duration),
			RPS:  ph.flt("rps", 0),
		})
	}
	for i, item := range top.list("events") {
		ev := d.section(item, fmt.Sprintf("events[%d]", i))
		e := Event{
			At:      ev.dur("at", 0),
			Device:  ev.num("device", 0),
			XID:     ev.num("xid", 0),
			Temp:    ev.flt("temp", 0),
			Message: ev.str("message", ""),
		}
		kind := ev.str("kind", "")
		if kind != "" {
			k, err := gpusim.ParseHealthKind(kind)
			if err != nil {
				d.fail("events[%d]: %v", i, err)
			} else {
				e.Kind = k
			}
		} else {
			d.fail("events[%d]: missing kind", i)
		}
		sc.Events = append(sc.Events, e)
	}
	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At })

	if v := top.child("distributed"); v != nil {
		ds := d.section(v, "distributed")
		spec := &DistSpec{
			M:  ds.num("m", 2),
			N:  ds.num("n", 1025),
			At: ds.dur("at", 0),
		}
		for i, item := range ds.list("victims") {
			str, ok := item.(string)
			if !ok {
				d.fail("distributed.victims[%d]: expected a device index", i)
				continue
			}
			n, err := strconv.Atoi(str)
			if err != nil {
				d.fail("distributed.victims[%d]: %q is not an integer", i, str)
				continue
			}
			spec.Victims = append(spec.Victims, n)
		}
		spec.Count = ds.num("count", 0)
		spec.Every = ds.dur("every", 0)
		sc.Distributed = spec
	}

	if v := top.child("gray"); v != nil {
		g := d.section(v, "gray")
		spec := &GraySpec{Straggler: -1, Flaky: -1}
		if sv := g.child("straggler"); sv != nil {
			s := d.section(sv, "gray.straggler")
			spec.Straggler = s.num("device", 0)
			spec.StragglerFactor = s.flt("factor", 10)
		}
		if fv := g.child("flaky"); fv != nil {
			fs := d.section(fv, "gray.flaky")
			spec.Flaky = fs.num("device", 0)
			spec.FlakyRate = fs.flt("rate", 0.3)
		}
		spec.IntegrityLimit = g.num("integrity_limit", 0)
		sc.Gray = spec
	}

	as := d.section(top.child("assert"), "assert")
	sc.Assert.MinServed = as.num("min_served", 0)
	sc.Assert.MaxRejectedFrac, sc.Assert.rejectedSet = 1, false
	if f, ok := as.fltOpt("max_rejected_frac"); ok {
		sc.Assert.MaxRejectedFrac, sc.Assert.rejectedSet = f, true
	}
	if n, ok := as.numOpt("cordons"); ok {
		sc.Assert.Cordons = &n
	}
	if n, ok := as.numOpt("max_forced_drains"); ok {
		sc.Assert.MaxForcedDrains = &n
	}
	sc.Assert.MinScaleUps = as.num("min_scale_ups", 0)
	sc.Assert.MinScaleDowns = as.num("min_scale_downs", 0)
	sc.Assert.MinRerouted = as.num("min_rerouted", 0)
	sc.Assert.MinDistSolves = as.num("min_dist_solves", 0)
	if n, ok := as.numOpt("dist_deaths"); ok {
		sc.Assert.DistDeaths = &n
	}
	sc.Assert.MinDistMigrations = as.num("min_dist_migrations", 0)
	sc.Assert.MinIntegrityRetries = as.num("min_integrity_retries", 0)
	sc.Assert.MinHedges = as.num("min_hedges", 0)
	if n, ok := as.numOpt("max_dist_degraded"); ok {
		sc.Assert.MaxDistDegraded = &n
	}
	for i, item := range as.list("cordoned_by") {
		cb := d.section(item, fmt.Sprintf("assert.cordoned_by[%d]", i))
		sc.Assert.CordonedBy = append(sc.Assert.CordonedBy, CordonDeadline{
			Device: cb.num("device", 0),
			Tick:   cb.num("tick", 0),
		})
	}
	for i, item := range as.list("final_states") {
		fs := d.section(item, fmt.Sprintf("assert.final_states[%d]", i))
		sc.Assert.FinalStates = append(sc.Assert.FinalStates, FinalState{
			Device: fs.num("device", 0),
			States: strings.Split(fs.str("state", "active"), "|"),
		})
	}

	d.finish()
	if d.err != nil {
		return nil, d.err
	}
	return sc, sc.validate()
}

// Upper bounds on what a scenario file may ask the runner for. A file
// is untrusted input (tridserve -scenario), and each knob sizes real
// work: a goroutine per request, Variants reference solves of the
// serving shape, a distributed solve per Count, Capacity solvers per
// device. The canned scenarios peak at 40 requests per tick, 8×64,
// 4 variants, 4×4097 distributed, 4 solves, capacity 2 and queue 128.
const (
	maxRequestsPerTick = 1000
	maxShapeElems      = 1 << 16 // serving shape M·N
	maxVariants        = 16
	maxDistElems       = 1 << 18 // distributed shape M·N
	maxDistCount       = 100
	maxCapacity        = 16
	maxQueue           = 4096
)

func (sc *Scenario) validate() error {
	switch {
	case sc.Tick <= 0 || sc.Duration <= 0:
		return fmt.Errorf("scenario: tick and duration must be positive")
	case sc.Duration/sc.Tick > 100_000:
		return fmt.Errorf("scenario: %v/%v is over 100000 ticks", sc.Duration, sc.Tick)
	case sc.M < 1 || sc.N < 2:
		return fmt.Errorf("scenario: bad shape %dx%d", sc.M, sc.N)
	case sc.M > maxShapeElems || sc.N > maxShapeElems || sc.M*sc.N > maxShapeElems:
		return fmt.Errorf("scenario: shape %dx%d is over %d elements", sc.M, sc.N, maxShapeElems)
	case sc.Devices < 1 || sc.Devices > 64:
		return fmt.Errorf("scenario: devices = %d, want 1..64", sc.Devices)
	case sc.Variants < 1 || sc.Variants > maxVariants:
		return fmt.Errorf("scenario: variants = %d, want 1..%d", sc.Variants, maxVariants)
	case sc.Capacity < 0 || sc.Capacity > maxCapacity:
		return fmt.Errorf("scenario: pool capacity = %d, want 0..%d", sc.Capacity, maxCapacity)
	case sc.Queue > maxQueue:
		return fmt.Errorf("scenario: pool queue = %d, over %d", sc.Queue, maxQueue)
	case len(sc.Load) == 0:
		return fmt.Errorf("scenario: no load phases")
	case !(sc.FaultRate >= 0 && sc.FaultRate <= 1):
		return fmt.Errorf("scenario: faults.rate %v must be in [0, 1]", sc.FaultRate)
	case !(sc.Assert.MaxRejectedFrac >= 0 && sc.Assert.MaxRejectedFrac <= 1):
		return fmt.Errorf("scenario: assert.max_rejected_frac %v must be in [0, 1]", sc.Assert.MaxRejectedFrac)
	}
	// The heaviest tick starts at some phase's From: sum the rates of
	// the phases active there.
	for _, ph := range sc.Load {
		if !(ph.RPS >= 0) {
			return fmt.Errorf("scenario: load rps %v must be a non-negative number", ph.RPS)
		}
	}
	for _, at := range sc.Load {
		var rps float64
		for _, ph := range sc.Load {
			if ph.From <= at.From && at.From < ph.To {
				rps += ph.RPS
			}
		}
		if perTick := rps * sc.Tick.Seconds(); !(perTick <= maxRequestsPerTick) {
			return fmt.Errorf("scenario: load at %v offers %g requests per tick, over %d", at.From, perTick, maxRequestsPerTick)
		}
	}
	for _, ev := range sc.Events {
		if ev.Device < 0 || ev.Device >= sc.Devices {
			return fmt.Errorf("scenario: event device %d out of range", ev.Device)
		}
	}
	for _, fs := range sc.Assert.FinalStates {
		if fs.Device < 0 || fs.Device >= sc.Devices {
			return fmt.Errorf("scenario: final_states device %d out of range", fs.Device)
		}
	}
	if ds := sc.Distributed; ds != nil {
		if ds.M < 1 || ds.N < 2*sc.Devices-1 {
			return fmt.Errorf("scenario: distributed shape %dx%d too small for %d slabs", ds.M, ds.N, sc.Devices)
		}
		if ds.M > maxDistElems || ds.N > maxDistElems || ds.M*ds.N > maxDistElems {
			return fmt.Errorf("scenario: distributed shape %dx%d is over %d elements", ds.M, ds.N, maxDistElems)
		}
		if ds.Count > maxDistCount {
			return fmt.Errorf("scenario: distributed count = %d, over %d", ds.Count, maxDistCount)
		}
		if ds.At < 0 || ds.At >= sc.Duration {
			return fmt.Errorf("scenario: distributed.at %v outside the run", ds.At)
		}
		for _, v := range ds.Victims {
			if v < 0 || v >= sc.Devices {
				return fmt.Errorf("scenario: distributed victim %d out of range", v)
			}
		}
		if len(ds.Victims) >= sc.Devices {
			return fmt.Errorf("scenario: all %d devices are victims — no survivor to migrate to", sc.Devices)
		}
		if ds.Count > 1 {
			every := ds.Every
			if every <= 0 {
				every = sc.Tick
			}
			if last := ds.At + time.Duration(ds.Count-1)*every; last >= sc.Duration {
				return fmt.Errorf("scenario: distributed solve %d would launch at %v, outside the run", ds.Count-1, last)
			}
		}
	}
	if g := sc.Gray; g != nil {
		if sc.Distributed == nil {
			return fmt.Errorf("scenario: gray failures need a distributed stanza — the detector's only evidence is distributed-solve reports")
		}
		if g.Straggler < 0 && g.Flaky < 0 {
			return fmt.Errorf("scenario: gray stanza arms neither a straggler nor a flaky link")
		}
		if g.Straggler >= sc.Devices {
			return fmt.Errorf("scenario: gray straggler device %d out of range", g.Straggler)
		}
		if g.Straggler >= 0 && !(g.StragglerFactor > 1) {
			return fmt.Errorf("scenario: gray straggler factor %g must be > 1", g.StragglerFactor)
		}
		if g.Flaky >= sc.Devices {
			return fmt.Errorf("scenario: gray flaky device %d out of range", g.Flaky)
		}
		if g.Flaky >= 0 && !(g.FlakyRate > 0 && g.FlakyRate < 1) {
			return fmt.Errorf("scenario: gray flaky rate %g must be in (0, 1)", g.FlakyRate)
		}
	}
	ticks := int(sc.Duration / sc.Tick)
	for _, cb := range sc.Assert.CordonedBy {
		if cb.Device < 0 || cb.Device >= sc.Devices {
			return fmt.Errorf("scenario: cordoned_by device %d out of range", cb.Device)
		}
		if cb.Tick < 0 || cb.Tick >= ticks {
			return fmt.Errorf("scenario: cordoned_by tick %d outside the run's %d ticks", cb.Tick, ticks)
		}
	}
	return nil
}

// decoder accumulates strict-decode errors: unknown keys (typos in a
// scenario file must fail, not silently pass the run) and conversion
// failures.
type decoder struct {
	err      error
	sections []*section
	// lines maps key paths to source lines (from parseYAML), so an
	// unknown-key error points at the exact line holding the typo.
	lines map[string]int
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("scenario: "+format, args...)
	}
}

// section wraps one YAML map with typed, defaulted accessors and
// used-key tracking.
type section struct {
	d    *decoder
	path string
	m    map[string]any
	used map[string]bool
}

func (d *decoder) section(v any, path string) *section {
	s := &section{d: d, path: path, used: make(map[string]bool)}
	switch m := v.(type) {
	case nil:
		s.m = map[string]any{}
	case map[string]any:
		s.m = m
	case string:
		if m == "" { // `key:` with no body
			s.m = map[string]any{}
		} else {
			d.fail("%s: expected a map, got %q", path, m)
			s.m = map[string]any{}
		}
	default:
		d.fail("%s: expected a map", path)
		s.m = map[string]any{}
	}
	d.sections = append(d.sections, s)
	return s
}

// finish reports unknown keys across every section, each pointing at
// the source line that holds the typo.
func (d *decoder) finish() {
	for _, s := range d.sections {
		var unknown []string
		for k := range s.m {
			if !s.used[k] {
				unknown = append(unknown, k)
			}
		}
		sort.Strings(unknown)
		for _, k := range unknown {
			if no, ok := d.lines[joinPath(s.path, k)]; ok {
				d.fail("line %d: %s: unknown key %q", no, s.keyPath(k), k)
			} else {
				d.fail("%s: unknown key %q", s.keyPath(k), k)
			}
		}
	}
}

func (s *section) keyPath(k string) string {
	if s.path == "" {
		return k
	}
	return s.path
}

func (s *section) raw(key string) (any, bool) {
	v, ok := s.m[key]
	if ok {
		s.used[key] = true
	}
	return v, ok
}

func (s *section) child(key string) any {
	v, _ := s.raw(key)
	return v
}

func (s *section) list(key string) []any {
	v, ok := s.raw(key)
	if !ok {
		return nil
	}
	l, ok := v.([]any)
	if !ok {
		s.d.fail("%s.%s: expected a list", s.path, key)
		return nil
	}
	return l
}

func (s *section) scalar(key string) (string, bool) {
	v, ok := s.raw(key)
	if !ok {
		return "", false
	}
	str, ok := v.(string)
	if !ok {
		s.d.fail("%s.%s: expected a scalar", s.path, key)
		return "", false
	}
	return str, true
}

func (s *section) str(key, def string) string {
	if v, ok := s.scalar(key); ok {
		return v
	}
	return def
}

func (s *section) num(key string, def int) int {
	n, ok := s.numOpt(key)
	if !ok {
		return def
	}
	return n
}

func (s *section) numOpt(key string) (int, bool) {
	v, ok := s.scalar(key)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		s.d.fail("%s.%s: %q is not an integer", s.path, key, v)
		return 0, false
	}
	return n, true
}

func (s *section) flt(key string, def float64) float64 {
	f, ok := s.fltOpt(key)
	if !ok {
		return def
	}
	return f
}

func (s *section) fltOpt(key string) (float64, bool) {
	v, ok := s.scalar(key)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		s.d.fail("%s.%s: %q is not a number", s.path, key, v)
		return 0, false
	}
	return f, true
}

func (s *section) dur(key string, def time.Duration) time.Duration {
	v, ok := s.scalar(key)
	if !ok {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		s.d.fail("%s.%s: %q is not a duration", s.path, key, v)
		return def
	}
	return d
}
