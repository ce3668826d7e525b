// Command tridserve exposes the overload-safe solver fleet over HTTP:
// a JSON solve endpoint with typed overload/deadline rejections, plus
// health and fleet endpoints reporting device, breaker and queue
// state. It is the serving-layer demonstrator: many concurrent clients
// multiplex onto bounded sets of warmed solvers, excess load fails
// fast with 503 instead of collapsing latency, a degrading device
// trips its traffic over to the host pivoting fallback, and a dying
// device's traffic re-routes to the survivors.
//
//	tridserve                          # one device, serve on :8437
//	tridserve -capacity 4 -queue 16    # bigger pool per device
//	tridserve -warm 64:1024,16:4096    # pre-build shapes at startup
//	tridserve -selftest                # no listener: end-to-end self-check
//	tridserve -fleet 3                 # 3 devices behind one front end
//	tridserve -scenario death.yaml     # replay a fleet scenario, exit 0/1
//	tridserve -batch 64                # coalesce small requests into
//	                                   # 64-system megabatches
//	tridserve -fleet 3 -distmin 4096   # huge-N requests solved across
//	                                   # all devices (survives device
//	                                   # death mid-solve)
//
// There is one serving mode: a fleet of -fleet devices (default 1),
// each an independent failure domain with its own warmed pool.
// Requests route to the least-loaded healthy device and re-route when
// a device dies beneath them, and a ticker runs the cordon/drain/
// autoscale control loop. A one-device fleet is the plain solver pool:
// its breaker and CPU fallback carry it through fault bursts, and
// corrected-ECC pressure never cordons its only device.
//
// Endpoints:
//
//	POST /solve         {"m","n","lower","diag","upper","rhs","timeout_ms"}
//	                    -> 200 {"x","route","wait_ns","wall_ns","device",
//	                       "attempts","rescued"}; "rescued", on every
//	                       route, counts the systems the verdict
//	                       re-solved on the host pivoting path (absent
//	                       when 0)
//	                    -> 400 invalid input, 413 body over 64 MiB, 422
//	                       "unsolvable" (a system the verdict could not
//	                       solve within tolerance, even on the host
//	                       pivoting path, on the device, coalesced or
//	                       distributed route), 503
//	                       overloaded/draining/no device (every 503
//	                       carries a Retry-After — from the pool's
//	                       service-time estimate where one exists, a
//	                       conservative default otherwise), 504
//	                       deadline/cancelled, 500 "faulted", 500
//	                       "unencodable" (an answer JSON cannot carry,
//	                       such as a NaN entry)
//	GET  /healthz       200 while serving ("degraded" but still 200 when
//	                    no servable device has a closed breaker or none
//	                    is Active — the fallback or a throttled device
//	                    serves), 503 with no servable device or once
//	                    draining
//	GET  /fleet         fleet snapshot: per-device state machine
//	                    position and pool statistics (per-shape queue
//	                    depths and service-time estimates, admission
//	                    counters, breaker window), census, control-plane
//	                    counters. The schema is the json tags of
//	                    fleet.Stats and the snapshot types beneath it
//	                    (fleet.DeviceStats, pool.Stats, pool.ShapeStats,
//	                    pool.BreakerSnapshot), plus batcher.Stats and
//	                    batcher.QueueStats under "batcher"
//	POST /fleet/inject  {"device","kind","xid","temp","message"} —
//	                    inject a synthetic health event ("xid",
//	                    "thermal", "ecc-corrected", "ecc-uncorrected",
//	                    "healed"); applied by the next tick; 413 for a
//	                    body over 64 KiB
//
// With -distmin K, /solve requests whose row count n is at least K are
// solved *across* the fleet instead of on one device: the system is
// slab-partitioned over every servable device's share of the
// simulated interconnect, a reduced interface system couples the
// slabs, and a device dying mid-solve surfaces a health event
// (cordoning it at the next tick) while its slab migrates to a
// survivor — the response is bitwise identical either way. Distributed
// responses carry route "distributed" with "dist_devices",
// "dist_deaths" and "dist_migrations". The slab elimination never
// pivots: an answer it leaves non-finite gets the pool's verdict, so a
// rescuable system answers 200 with the device route's bits and an
// unsolvable one 422 "unsolvable".
//
// With -batch N concurrent small /solve requests of the same row count
// are coalesced into interleaved megabatches of up to N systems and
// solved through one pooled megabatch solver lease on the least-loaded
// device, flushing on a size watermark or after -batchwait. Responses
// carry "flush_size"; per-system guard failures in a shared megabatch
// fail only the requests that submitted them, and a full coalescing
// queue sheds with 503 like any other overload. /fleet
// then includes a "batcher" section with queue depths and flush-cause
// counters.
//
// With -scenario FILE the process runs no listener at all: it replays
// the YAML fleet scenario (load phases, injected health events,
// assertions) deterministically on a virtual clock and exits 0 when
// every assertion holds, 1 otherwise. See internal/fleet/scenario.
//
// The -selftest mode runs the whole stack in-process against a real
// HTTP listener on a loopback port: correctness vs the reference CPU
// solve, fail-fast 503s under 4x-capacity offered load, breaker trip
// and recovery under injected faults, graceful drain, and a
// distributed solve surviving a device death. It exits 0 on success
// and 1 on failure, and is wired into CI under -race.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"gputrid"
	"gputrid/internal/fleet"
	"gputrid/internal/fleet/scenario"
)

func main() {
	var (
		addr      = flag.String("addr", ":8437", "listen address")
		capacity  = flag.Int("capacity", 2, "warmed solvers per shape per device")
		queue     = flag.Int("queue", 0, "admission queue per shape per device (0 = 4x capacity)")
		shapes    = flag.Int("maxshapes", 8, "max distinct warmed shapes per device")
		warm      = flag.String("warm", "", "comma list of M:N shapes to pre-build")
		selftest  = flag.Bool("selftest", false, "run the end-to-end self-check and exit")
		timeout   = flag.Duration("timeout", 5*time.Minute, "overall selftest deadline (the -race selftest needs ~1m)")
		fleetN    = flag.Int("fleet", 1, "serve through a fleet of N device failure domains (N >= 1)")
		scenFile  = flag.String("scenario", "", "replay a YAML fleet scenario and exit 0/1 on its assertions")
		batchN    = flag.Int("batch", 0, "coalesce concurrent small requests into megabatches of up to N systems (0 = off)")
		batchWait = flag.Duration("batchwait", 2*time.Millisecond, "max time a coalesced request waits for company")
		distMin   = flag.Int("distmin", 0, "solve requests with n >= this across all devices (0 = off)")
	)
	flag.Parse()
	if *fleetN < 1 {
		fmt.Fprintf(os.Stderr, "tridserve: -fleet %d: want at least 1 device\n", *fleetN)
		flag.Usage()
		os.Exit(2)
	}

	if *selftest {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		if err := runSelfTest(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "tridserve: selftest FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("tridserve: selftest ok")
		return
	}

	if *scenFile != "" {
		if err := runScenario(*scenFile); err != nil {
			fmt.Fprintf(os.Stderr, "tridserve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	warmShapes, err := parseWarmShapes(*warm)
	if err == nil {
		err = serve(*addr, fleet.Config{
			Devices: *fleetN,
			Pool: gputrid.PoolConfig{
				Capacity:   *capacity,
				QueueLimit: *queue,
				MaxShapes:  *shapes,
			},
			WarmShapes: warmShapes,
		}, *batchN, *batchWait, *distMin)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tridserve: %v\n", err)
		os.Exit(1)
	}
}

// runScenario replays one YAML fleet scenario deterministically and
// prints its report; the exit status is the assertion verdict, which
// is what lets CI run scenarios as smoke tests.
func runScenario(path string) error {
	rep, err := scenario.RunFile(path, log.New(os.Stderr, "", 0).Printf)
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	if !rep.OK() {
		return fmt.Errorf("scenario %s failed %d assertion(s)", rep.Scenario, len(rep.Failures))
	}
	return nil
}
