package main

import "time"

// workloadSpec is one row of the benchmark's workload table: everything a
// workload's run depends on besides the seed and the run length.
type workloadSpec struct {
	name string
	// why is the workload's reason to exist, as BENCHMARK.json records it.
	why string
	// open marks an open-loop workload: a Poisson schedule at rate
	// (req/s), then a knee search for the highest rate whose p90 stays
	// within slo. Closed-loop workloads run one caller back to back.
	open bool
	rate float64
	slo  time.Duration
	// share is the traffic mix over request classes (open loop).
	share [numClasses]float64
	// serverArgs start tridserve (serve-http).
	serverArgs []string
	// devices, maxBatch, maxWait and maxQueued configure the in-process
	// fleet and batcher; n is the row count (the grid edge for adi-step).
	devices   int
	maxBatch  int
	maxWait   time.Duration
	maxQueued int
	n         int
	// run measures the workload; start brings an in-process system up,
	// the part of a run that setup_s times in fresh processes.
	run   func(e *env, w *workloadSpec) (*outcome, error)
	start func(e *env, w *workloadSpec) (system, error)
}

// system is an in-process system under test, brought up by start.
type system interface{ close() }

// defaultSeed and defaultSeconds are the run parameters when no flag
// overrides them; BENCHMARK.json's run_seconds matches defaultSeconds.
const (
	defaultSeed    = 1
	defaultSeconds = 15
)

// tickInterval is how often the in-process workloads run Fleet.Tick,
// as tridserve's control loop does.
const tickInterval = 250 * time.Millisecond

var workloads = []*workloadSpec{
	{
		name: "serve-http",
		why:  "tridserve over loopback HTTP with a spline/option/ADI mix at two connections: JSON and the batcher's wait dominate, kernels do little",
		open: true, rate: 120, slo: 20 * time.Millisecond,
		share:      [numClasses]float64{classSpline: 0.60, classOption: 0.25, classADI: 0.15},
		serverArgs: []string{"-addr", "127.0.0.1:0", "-fleet", "2", "-batch", "32", "-warm", "64:64"},
		run:        runServeHTTP,
	},
	{
		name: "coalesce-burst",
		why:  "in-process batcher over a 2-device fleet at thousands of 1x511 option ladders a second: coalescing and the k=0 megabatch path do the work",
		open: true, rate: 6000, slo: 7 * time.Millisecond,
		share:   [numClasses]float64{classOption: 1},
		devices: 2, maxBatch: 32, maxWait: 2 * time.Millisecond, n: 511,
		// tridserve's default of 4 queued flights sheds the burst of
		// arrivals that follows a host stall of ~25 ms at this rate; 64
		// queue a stall of ~300 ms instead, so no request of the fixed
		// phase fails.
		maxQueued: 64,
		run:       runCoalesce, start: startCoalesce,
	},
	{
		name: "adi-step",
		why:  "Peaceman-Rachford Heat2D steps on a 192x192 grid through one reused Solver: the paper's tiled PCR + p-Thomas kernels, no serving layer",
		n:    192,
		run:  runADI, start: startADI,
	},
	{
		name:    "dist-huge",
		why:     "one 131073-row system solved across a 4-device fleet: the only path through core.DistSolver and gpusim.Topology, allocation-heavy",
		devices: 4, n: 131073,
		run: runDist, start: startDist,
	},
}

// workloadByName finds a row of the table.
func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricClass says which run reports a metric.
type metricClass int

const (
	// endToEnd metrics come from the untraced run; BENCHMARK.json bounds
	// them.
	endToEnd metricClass = iota
	// perLayer metrics come from the traced run, for every workload;
	// a layer a workload does not reach reads 0.
	perLayer
	// extra metrics are printed and saved where a workload measures
	// them, but are not named in BENCHMARK.json: some hold for only some
	// workloads, some are exact (modeled) or zero by design, and some
	// vary from run to run by more than any bound it may set.
	extra
)

// metricDef names one metric. better is "lower" or "higher"; exact
// marks a deterministic (modeled) metric that -check requires to match
// exactly; zeroBound marks one -check allows no worsening at all.
type metricDef struct {
	name, unit, better string
	class              metricClass
	exact, zeroBound   bool
}

var metricTable = []metricDef{
	// End to end: what a caller of the workload sees. Only these three
	// repeat across seeds within the largest bound BENCHMARK.json may
	// set (see calibration.json); the tail, the knee and CPU per op below
	// are measured and printed but vary more than that on a shared host.
	{name: "setup_s", unit: "s", better: "lower", class: endToEnd},
	{name: "lat_p50_ms", unit: "ms", better: "lower", class: endToEnd},
	{name: "mem_peak_mb", unit: "MB", better: "lower", class: endToEnd},

	{name: "error_rate", unit: "ratio", better: "lower", class: extra, zeroBound: true},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", class: extra},
	{name: "lat_p90_ms", unit: "ms", better: "lower", class: extra},
	{name: "lat_p99_ms", unit: "ms", better: "lower", class: extra},
	{name: "max_rps_at_slo", unit: "1/s", better: "higher", class: extra},
	{name: "rows_per_s", unit: "rows/s", better: "higher", class: extra},
	{name: "modeled_ms", unit: "ms", better: "lower", class: extra, exact: true},
	{name: "allocs_per_op", unit: "count", better: "lower", class: extra},
	{name: "load.gen_lag_p99_ms", unit: "ms", better: "lower", class: extra},

	// Per layer, named by module.
	{name: "tridserve.front_share", unit: "ratio", better: "lower", class: perLayer},
	{name: "tridserve.body_share", unit: "ratio", better: "lower", class: perLayer},
	{name: "tridserve.req_kb_mean", unit: "KB", better: "lower", class: perLayer},
	{name: "tridserve.resp_kb_mean", unit: "KB", better: "lower", class: perLayer},
	{name: "tridserve.route_share_coalesced", unit: "ratio", better: "higher", class: perLayer},
	{name: "tridserve.route_share_device", unit: "ratio", better: "lower", class: perLayer},
	{name: "tridserve.new_conns_per_req", unit: "ratio", better: "lower", class: perLayer},
	{name: "tridserve.front_p50_ms", unit: "ms", better: "lower", class: extra},

	{name: "batcher.wait_share", unit: "ratio", better: "lower", class: perLayer},
	{name: "batcher.flush_systems_mean", unit: "count", better: "higher", class: perLayer},
	{name: "batcher.deadline_flush_share", unit: "ratio", better: "lower", class: perLayer},
	{name: "batcher.padding_share", unit: "ratio", better: "lower", class: perLayer},
	{name: "batcher.shed", unit: "count", better: "lower", class: perLayer},
	{name: "batcher.wait_p50_ms", unit: "ms", better: "lower", class: extra},

	{name: "pool.wait_share", unit: "ratio", better: "lower", class: perLayer},
	{name: "pool.rejected", unit: "count", better: "lower", class: perLayer},
	{name: "pool.fallback_share", unit: "ratio", better: "lower", class: perLayer},
	{name: "pool.wait_p50_ms", unit: "ms", better: "lower", class: extra},

	{name: "fleet.rerouted", unit: "count", better: "lower", class: perLayer},
	{name: "fleet.rejected", unit: "count", better: "lower", class: perLayer},
	{name: "fleet.device_served_imbalance", unit: "ratio", better: "lower", class: perLayer},

	{name: "core.solve_p50_ms", unit: "ms", better: "lower", class: perLayer},
	{name: "core.solve_p90_ms", unit: "ms", better: "lower", class: perLayer},
	{name: "core.solve_share", unit: "ratio", better: "lower", class: perLayer},
	{name: "core.dist.comm_mb_per_solve", unit: "MB", better: "lower", class: perLayer},
	{name: "core.dist.overlap_ratio", unit: "ratio", better: "higher", class: perLayer},
	{name: "core.dist.busy_imbalance", unit: "ratio", better: "lower", class: perLayer},
	{name: "core.dist.integrity_retries_per_solve", unit: "count", better: "lower", class: perLayer},
	{name: "core.dist.hedges_per_solve", unit: "count", better: "lower", class: perLayer},
	{name: "core.dist.migrations_per_solve", unit: "count", better: "lower", class: perLayer},

	{name: "adi.build_share", unit: "ratio", better: "lower", class: perLayer},
	{name: "adi.build_p50_ms", unit: "ms", better: "lower", class: extra},

	{name: "gpusim.global_mb_per_solve", unit: "MB", better: "lower", class: perLayer},
	{name: "gpusim.ops_per_byte", unit: "ratio", better: "higher", class: perLayer},
	{name: "gpusim.bank_conflicts_per_solve", unit: "count", better: "lower", class: perLayer},
	{name: "gpusim.pcr_share", unit: "ratio", better: "lower", class: perLayer},
	{name: "gpusim.pcr_modeled_us", unit: "us", better: "lower", class: extra, exact: true},
	{name: "gpusim.pthomas_modeled_us", unit: "us", better: "lower", class: extra, exact: true},

	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower", class: perLayer},
	{name: "runtime.gc_cycles_per_op", unit: "count", better: "lower", class: perLayer},
	{name: "runtime.alloc_mb_per_op", unit: "MB", better: "lower", class: perLayer},

	{name: "load.gen_lag_p90_ms", unit: "ms", better: "lower", class: perLayer},
	{name: "load.samples", unit: "count", better: "higher", class: perLayer},
	{name: "load.trace_overhead_pct", unit: "%", better: "lower", class: perLayer},
	{name: "load.build_s", unit: "s", better: "lower", class: perLayer},
}

// metricByName finds a metric definition.
func metricByName(name string) (metricDef, bool) {
	for _, m := range metricTable {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
