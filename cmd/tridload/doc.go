// Command tridload is the repository's benchmark: it drives gputrid's
// serving stack and solvers with traffic from the repository's own PDE
// applications, checks every answer, and reports end-to-end and
// per-layer metrics.
//
// # Running it
//
// tridload is a module of its own (it has its own go.mod and reaches the
// gputrid packages through a replace directive), so it is built from this
// directory, and the repository's go test ./... does not run its tests.
// bench.sh builds it with every build product under .bench_build/ in the
// repository and runs it from the repository root:
//
//	bash cmd/tridload/bench.sh --workload adi-step --seed 3 --seconds 15 --trace 0
//	bash cmd/tridload/bench.sh -out .bench_build/run.json      # all four workloads
//	bash cmd/tridload/bench.sh -trace 1 -out .bench_build/traced.json
//	bash cmd/tridload/bench.sh -check base.json new.json
//	cd cmd/tridload && go test ./...                        # TestWorkloadsSmoke ~20s; -short skips it
//
// With -workload, one workload runs in the current process. It prints
// every metric as "workload metric value unit", then (traced) each span
// name's count, total and self time, and last one JSON line:
//
//	{"correct":true,"attempted":1000,"failed":0,"metrics":{"lat_p50_ms":{"value":11.5,"unit":"ms"},...}}
//
// The JSON line holds exactly the end_to_end metrics of BENCHMARK.json
// (-trace 0) or its per_layer metrics (-trace 1). "failed" counts failed
// and incorrect operations. The exit code is 1 when any output was
// incorrect.
//
// Without -workload, the four workloads run one after another, each in
// its own child process so heap, GC and peak RSS never carry over. The
// run prints every metric and, with -out, writes them all to a result
// file; the untraced run takes about a minute and a half. -check
// base.json new.json compares two result files: every end-to-end metric
// of every workload may worsen by at most its BENCHMARK.json bound, exact
// (modeled) metrics must match, error_rate may not rise. It prints one
// row per workload and exits 1 on a regression. Run in both directions on
// two runs of one commit, it checks that the benchmark repeats.
//
// The seed (-seed, default 1) fixes every input: request bodies,
// volatilities, the ADI field, the traffic mix and each phase's
// arrival schedule. -seconds (default 15, BENCHMARK.json's run_seconds)
// is the measured time of one workload.
//
// # Workloads
//
// The table in table.go holds every parameter.
//
//   - serve-http: open loop against a real tridserve built from this
//     checkout (-fleet 2 -batch 32 -warm 64:64) over loopback HTTP, from a
//     client holding two keep-alive connections, at 120 req/s. The mix is
//     60% natural cubic spline fits (1×255), 25% Crank–Nicolson option
//     steps (1×511, one volatility each, as in examples/options) and 15%
//     Peaceman–Rachford line batches (64×64) captured from an internal/adi
//     Heat2D stepper. The single-system requests ride the coalesced route,
//     so at two connections this workload shows what the batcher's wait
//     costs; the 64×64 batches take the device route. JSON decoding and
//     encoding dominate. Kernels do little.
//   - coalesce-burst: open loop, one goroutine per arrival, at 6000 req/s
//     into batcher.New{MaxBatch 32, MaxWait 2ms, MaxQueuedFlights 64} over
//     fleet.New{Devices 2}, with Fleet.Tick every 250ms: tridserve -fleet 2
//     -batch 32 without HTTP, but with 64 queued flights in place of 4, so
//     that the burst of overdue arrivals after a host stall queues instead
//     of being shed. Requests are 1×511 option steps. Above the rate at which
//     per-request solves shed, the batcher and the k=0 interleaved
//     megabatch path do the work; this workload shows what coalescing
//     buys.
//   - adi-step: closed loop, one Heat2D stepper on a 192×192 grid whose
//     backend is one reused gputrid.Solver, so each step solves two
//     192×192 batches through tiled PCR (k=6) and p-Thomas. This is the
//     paper's workload, with no serving layer.
//   - dist-huge: closed loop, Fleet.SolveDistributed on one 131073-row
//     diagonally dominant system over fleet.New{Devices 4}. It is the
//     only path through core.DistSolver and gpusim.Topology, and it
//     allocates heavily.
//
// The layers are used differently across workloads: the batcher is pure
// wait at two connections (serve-http) and essential at high rate
// (coalesce-burst); the pool serves several per-request shapes in one
// and a single megabatch station in the other; core.Pipeline runs k=0
// interleaved in coalesce-burst and k=6 tiled PCR in adi-step.
//
// # How a run measures
//
// Set-up (setup_s) is the median of fifteen fresh-process set-ups: for
// serve-http, starting tridserve until it answers /healthz and one
// request of each class; otherwise starting a tridload child until it
// has built the system and run its first (recording) solve. The go build
// is not included. A second of warm-up traffic follows, unmeasured but
// checked.
//
// Open-loop workloads draw Poisson arrival schedules from the seed before
// each phase, and a traffic mix that is exact in every 20 requests.
// Latency runs from each request's due time, so a stall is
// charged to every request queued behind it and coordinated omission
// cannot hide queueing. The generator sleeps its last two milliseconds in
// the kernel, because Go's timers can fire a millisecond late. Three fifths
// of the run is the fixed-rate phase. The rest is the knee search: a
// bisection over rates 5% apart above the fixed rate, in at most six
// probes of at least 500 requests. A probe passes when at most 10% of its
// requests missed the SLO (its p90 met it), failed and unsent requests
// counting as misses, so shedding or a growing backlog fails it. The
// knee is interpolated between the last passing and the first failing
// rate by that miss share. Closed loops call back to back for the whole
// run, and at least 200 times.
//
// The fixed phase is measured in five consecutive windows. Rates, CPU per
// op and peak RSS are medians over the windows; the peak RSS (VmHWM) of a
// window is read after resetting it through /proc/<pid>/clear_refs at the
// window's start. Latency percentiles are medians of
// per-window percentiles, over windows each holding at least ten samples
// beyond the percentile. A percentile with fewer than ten samples beyond
// it is refused, never reported.
//
// The SLO is on p90. On the two-vCPU host the benchmark was calibrated
// on, other tenants slow the same code by 1.5–2.5× for tens of seconds
// to minutes at a time, one vCPU at a time. Within a run the medians keep
// a burst in one window out of a result, but a slow spell as long as the
// run still shows, so every bound in BENCHMARK.json is the largest it may
// be, 25%.
//
// Responses are decoded and checked after each phase, off the latency
// clock. HTTP and coalesced answers are compared with a CPU pivoting
// solve computed once per distinct body (relative error ≤ 1e-9). The
// final ADI field is compared with a CPU-backed stepper run for the same
// number of steps. The first distributed solve is compared with the CPU
// solve, and every later one must match it bit for bit.
//
// # End-to-end metrics
//
// Every workload reports these three, from the untraced run, and
// BENCHMARK.json bounds them:
//
//	setup_s        median set-up time (above)
//	lat_p50_ms     median latency of the fixed phase (per step or solve in closed loops)
//	mem_peak_mb    peak RSS of tridserve or of this process in a window of the fixed phase, median over windows
//
// These are printed and saved too, where they apply, but BENCHMARK.json
// does not bound them; -check holds modeled_ms exact and error_rate from
// rising:
//
//	cpu_ms_per_op   CPU per op: tridserve's (from /proc) for serve-http, this process's (rusage) otherwise
//	lat_p90_ms      90th percentile latency of the fixed phase
//	lat_p99_ms      99th percentile, where the fixed phase holds a thousand samples
//	max_rps_at_slo  the SLO knee (open loop)
//	rows_per_s      rows solved per second (closed loop)
//	modeled_ms      adi-step: two solves' Solver.ModeledTime; dist-huge: ModeledPipelined
//	allocs_per_op   heap allocations per op (in-process workloads)
//	error_rate      (failed + incorrect) / attempted; 0 by design
//	load.gen_lag_p99_ms
//
// CPU per op, the tail and the knee are left unbounded because their
// spread across seeds passes 25% even while the other metrics hold.
// serve-http's p90 falls where the 15% of 64×64 requests, whose 230 KB
// bodies make them the most exposed to other tenants' memory traffic,
// meet the coalesced ones. A knee probe either keeps up or collapses, so
// the knee moves by whole grid steps. coalesce-burst's CPU per request
// follows how full its flushes are, and that follows the host's speed.
// calibration.json has the spreads. A run is marked invalid
// (valid=false) when the generator's p90 lag exceeds a tenth of the SLO.
//
// # Per-layer metrics and the end-to-end metric each should move
//
// They come from the traced run, in which half the run is untraced and
// half traced. Every workload reports every one; a layer the workload
// does not reach reads 0. Times within a layer are shares of the op's
// latency (mean layer time over mean latency), so they mean the same in
// every workload. Unbounded end-to-end metrics are in parentheses.
//
//	tridserve  front_share (TTFB − wait_ns − wall_ns, device route), body_share,
//	           req_kb_mean, resp_kb_mean, route_share_{coalesced,device},
//	           new_conns_per_req
//	           → lat_p50_ms (and cpu_ms_per_op, lat_p90_ms) on serve-http
//	batcher    wait_share, flush_systems_mean, deadline_flush_share,
//	           padding_share, shed
//	           → lat_p50_ms on serve-http and coalesce-burst (and cpu_ms_per_op,
//	           max_rps_at_slo on coalesce-burst)
//	pool       wait_share (wait_ns), rejected, fallback_share
//	           → (error_rate, lat_p90_ms) on serve-http
//	fleet      rerouted, rejected, device_served_imbalance
//	           → (error_rate, lat_p90_ms) on serve-http and dist-huge
//	core       solve_p50_ms, solve_p90_ms, solve_share (wall_ns, the megabatch
//	           flush, SolveBatchInto or SolveDistributed), and core.dist.*:
//	           comm_mb_per_solve, overlap_ratio, busy_imbalance,
//	           {integrity_retries,hedges,migrations}_per_solve — totals over
//	           solves, never over run length
//	           → lat_p50_ms (and cpu_ms_per_op) on adi-step and dist-huge
//	adi        build_share (step minus its solves) → lat_p50_ms on adi-step
//	gpusim     global_mb_per_solve (bus bytes), ops_per_byte,
//	           bank_conflicts_per_solve, pcr_share, from EstimateBreakdown of
//	           core.Solve's per-launch stats at the workload's shape
//	           → (modeled_ms) on adi-step
//	runtime    gc_cpu_share, gc_cycles_per_op, alloc_mb_per_op (runtime/metrics;
//	           for serve-http tridserve's GODEBUG=gctrace=1 lines, 1 MB resolution)
//	           → mem_peak_mb (and cpu_ms_per_op) on dist-huge and coalesce-burst
//	load       gen_lag_p90_ms, samples, trace_overhead_pct, build_s — harness
//	           validity, no end-to-end metric
//
// Extras where they apply: tridserve.front_p50_ms, batcher.wait_p50_ms,
// pool.wait_p50_ms, adi.build_p50_ms, gpusim.pcr_modeled_us and
// gpusim.pthomas_modeled_us (exact).
//
// # Reading a trace
//
// A traced run writes <tracedir>/<workload>.json (default
// .bench_build/trace), a JSON array of spans with name, start_ns and
// end_ns since the phase began, parent (the index of the enclosing span in
// the array, -1 for a root) and req (the request, step or flush id). The
// spans are recorded by the benchmark around calls into each layer's
// public functions, into a buffer allocated up front:
//
//	serve-http      http.request → http.write, tridserve.handler (request
//	                written → first response byte), http.body
//	coalesce-burst  batcher.Solve per request; fleet.SolveMegabatch per flush
//	adi-step        adi.Heat2D.Step → gputrid.Solver.SolveBatchInto ×2
//	dist-huge       fleet.SolveDistributed
//
// A span's self time is its duration minus the union of its children's;
// the run prints it per span name. load.trace_overhead_pct compares the
// traced half's median latency with the untraced half's.
//
// # Calibration
//
// calibration.json records the runs the fixed rates, SLOs and bounds were
// set from: per workload and end-to-end metric, the median and the
// spread (interquartile range over median) of runs with distinct seeds,
// with the command and host. Each fixed rate is about 40% of its knee
// and each SLO about twice the p90 at the fixed rate.
//
// # Known gaps
//
//   - Spans stop at public entry points. The wall-time split inside
//     core.Pipeline (transpose, PCR, p-Thomas, guard) and the DistSolver
//     phases needs instruments inside the program.
//   - tridserve reports no wall_ns on the coalesced route, so the solve
//     share of a coalesced HTTP request is not observable from outside.
//   - core.DistSolver's slab kernels expose no per-launch statistics; the
//     gpusim metrics of dist-huge read 0.
//   - tridserve exposes no Go runtime statistics; serve-http's runtime
//     metrics come from gctrace lines, and its allocation count is not
//     measured.
package main
