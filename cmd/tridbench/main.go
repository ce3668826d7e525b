// Command tridbench regenerates every table and figure of the paper's
// evaluation section on the simulated GTX480 / i7-975 pairing.
//
//	tridbench                  # run everything
//	tridbench -exp fig12a      # one experiment
//	tridbench -exp list        # list experiment IDs
//	tridbench -scale 8         # divide problem sizes by 8 (quick run)
//	tridbench -csv             # emit CSV instead of aligned text
//	tridbench -measure-cpu     # also wall-clock the real Go CPU baseline
//	tridbench -reuse 64:1024   # one-shot vs reusable-solver comparison
//	tridbench -faults 64:1024  # fault-rate sweep of the recovery layer
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"gputrid/internal/bench"
	"gputrid/internal/core"
	"gputrid/internal/gpusim"
	"gputrid/internal/workload"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment ID, 'all', or 'list'")
		scale      = flag.Int("scale", 1, "divide problem sizes by this factor")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		seed       = flag.Uint64("seed", 20110913, "workload seed")
		measureCPU = flag.Bool("measure-cpu", false, "wall-clock the real Go CPU baselines too")
		device     = flag.String("device", "gtx480", "GPU preset: gtx480|teslac2070|gtx280")
		profile    = flag.String("profile", "", "per-kernel profile: solver:M:N[:k], e.g. hybrid:16:65536:7")
		reuse      = flag.String("reuse", "", "compare one-shot vs reusable solver: M:N[:iters], e.g. 64:1024:20")
		faults     = flag.String("faults", "", "fault-injection rate sweep on a reused solver: M:N[:iters], e.g. 64:1024:20")
	)
	flag.Parse()

	if *exp == "list" {
		all := append(bench.Experiments(), bench.Ablations()...)
		all = append(all, bench.Extras()...)
		fmt.Println(strings.Join(all, "\n"))
		return
	}

	env := bench.DefaultEnv()
	if d, ok := gpusim.Devices()[strings.ToLower(*device)]; ok {
		env.GPU = d
	} else {
		fmt.Fprintf(os.Stderr, "tridbench: unknown device %q\n", *device)
		os.Exit(1)
	}
	env.Scale = *scale
	env.Seed = *seed
	env.MeasureCPU = *measureCPU

	if *profile != "" {
		parts := strings.Split(*profile, ":")
		if len(parts) < 3 {
			fmt.Fprintln(os.Stderr, "tridbench: -profile wants solver:M:N[:k]")
			os.Exit(1)
		}
		var m, n int
		k := -1
		fmt.Sscan(parts[1], &m)
		fmt.Sscan(parts[2], &n)
		if len(parts) > 3 {
			fmt.Sscan(parts[3], &k)
		}
		out, err := env.Profile(parts[0], m, n, k)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tridbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(out)
		return
	}

	if *reuse != "" {
		if err := runReuse(*reuse, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "tridbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *faults != "" {
		if err := runFaultSweep(*faults, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "tridbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	ids := bench.Experiments()
	switch *exp {
	case "all":
	case "ablations":
		ids = bench.Ablations()
	case "extras":
		ids = bench.Extras()
	case "everything":
		ids = append(ids, bench.Ablations()...)
		ids = append(ids, bench.Extras()...)
	default:
		ids = strings.Split(*exp, ",")
	}
	start := time.Now()
	for _, id := range ids {
		id = strings.TrimSpace(id)
		var t *bench.Table
		var err error
		if strings.HasPrefix(id, "ablation-") {
			t, err = env.RunAblation(id)
		} else if strings.HasPrefix(id, "extra-") {
			t, err = env.RunExtra(id)
		} else {
			t, err = env.Run(id)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tridbench: %v\n", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
		} else {
			fmt.Println(t.Format())
		}
	}
	fmt.Fprintf(os.Stderr, "tridbench: completed %d experiment(s) in %v (scale=%d)\n",
		len(ids), time.Since(start).Round(time.Millisecond), *scale)
}

// runReuse wall-clocks the one-shot solver against a reused Pipeline at
// the given shape and reports per-solve time and heap allocations for
// each. The reused path must produce bitwise-identical solutions.
func runReuse(spec string, seed uint64) error {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 {
		return fmt.Errorf("-reuse wants M:N[:iters]")
	}
	var m, n int
	iters := 20
	fmt.Sscan(parts[0], &m)
	fmt.Sscan(parts[1], &n)
	if len(parts) > 2 {
		fmt.Sscan(parts[2], &iters)
	}
	if m <= 0 || n <= 0 || iters <= 0 {
		return fmt.Errorf("-reuse wants positive M:N[:iters], got %q", spec)
	}

	batch := workload.Batch[float64](workload.DiagDominant, m, n, seed)
	cfg := core.Config{K: core.KAuto}

	// One-shot: a fresh pipeline per solve. The first records the
	// device events; the rest take them from the recording memo.
	var ref []float64
	oneShotTime, oneShotAllocs, err := timeSolves(iters, func() error {
		x, _, err := core.Solve(cfg, batch)
		ref = x
		return err
	})
	if err != nil {
		return err
	}

	// Reused: one warmed pipeline, replayed solves into a caller arena.
	p, err := core.NewPipeline[float64](cfg, m, n)
	if err != nil {
		return err
	}
	defer p.Close()
	dst := make([]float64, m*n)
	if err := p.SolveInto(dst, batch); err != nil { // first solve: Stats from the memo
		return err
	}
	reuseTime, reuseAllocs, err := timeSolves(iters, func() error {
		return p.SolveInto(dst, batch)
	})
	if err != nil {
		return err
	}

	for i := range ref {
		if dst[i] != ref[i] {
			return fmt.Errorf("reuse mismatch at element %d: %v != %v", i, dst[i], ref[i])
		}
	}

	fmt.Printf("reuse comparison: M=%d N=%d k=%d iters=%d (float64, %s)\n",
		m, n, p.K(), iters, p.Device().Name)
	fmt.Printf("  %-10s %14s %14s\n", "mode", "time/solve", "allocs/solve")
	fmt.Printf("  %-10s %14v %14d\n", "one-shot", oneShotTime, oneShotAllocs)
	fmt.Printf("  %-10s %14v %14d\n", "reuse", reuseTime, reuseAllocs)
	fmt.Printf("  speedup %.2fx, solutions bitwise identical\n",
		float64(oneShotTime)/float64(reuseTime))
	return nil
}

// runFaultSweep replays solves on one reused pipeline while sweeping
// the transient-fault injection rate, reporting the recovery layer's
// activity (faults seen, shard retries, degraded systems, wasted
// modeled device time) and the wall-clock overhead relative to the
// fault-free baseline. Recovered solutions are checked bitwise against
// the fault-free reference — the checkpointed-retry guarantee.
func runFaultSweep(spec string, seed uint64) error {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 {
		return fmt.Errorf("-faults wants M:N[:iters]")
	}
	var m, n int
	iters := 20
	fmt.Sscan(parts[0], &m)
	fmt.Sscan(parts[1], &n)
	if len(parts) > 2 {
		fmt.Sscan(parts[2], &iters)
	}
	if m <= 0 || n <= 0 || iters <= 0 {
		return fmt.Errorf("-faults wants positive M:N[:iters], got %q", spec)
	}

	batch := workload.Batch[float64](workload.DiagDominant, m, n, seed)
	dev := gpusim.GTX480()
	cfg := core.Config{K: core.KAuto, Device: dev}
	p, err := core.NewPipeline[float64](cfg, m, n)
	if err != nil {
		return err
	}
	defer p.Close()
	dst := make([]float64, m*n)
	if err := p.SolveInto(dst, batch); err != nil { // first solve, fault-free
		return err
	}
	ref := make([]float64, m*n)
	copy(ref, dst)

	rates := []float64{0, 0.01, 0.02, 0.05, 0.1}
	fmt.Printf("fault-rate sweep: M=%d N=%d k=%d iters=%d (float64, %s)\n",
		m, n, p.K(), iters, dev.Name)
	fmt.Printf("  %-6s %12s %8s %8s %9s %13s %9s\n",
		"rate", "time/solve", "faults", "retries", "degraded", "wasted(dev)", "overhead")
	var base time.Duration
	for _, rate := range rates {
		if rate == 0 {
			dev.Faults = nil
		} else {
			dev.Faults = &gpusim.Injector{Seed: seed, Rate: rate}
		}
		var faults, retries, degraded int
		var wasted time.Duration
		elapsed, _, err := timeSolves(iters, func() error {
			if err := p.SolveInto(dst, batch); err != nil {
				return err
			}
			if fr := p.Report().Faults; fr != nil {
				faults += fr.Faults
				retries += fr.TotalRetries()
				degraded += len(fr.Degraded)
				wasted += fr.WastedModeledTime
			}
			return nil
		})
		if err != nil {
			return err
		}
		if degraded == 0 {
			for i := range ref {
				if dst[i] != ref[i] {
					return fmt.Errorf("rate %g: recovered solution differs at element %d: %v != %v",
						rate, i, dst[i], ref[i])
				}
			}
		}
		overhead := "1.00x"
		if rate == 0 {
			base = elapsed
		} else if base > 0 {
			overhead = fmt.Sprintf("%.2fx", float64(elapsed)/float64(base))
		}
		fmt.Printf("  %-6g %12v %8d %8d %9d %13v %9s\n",
			rate, elapsed, faults, retries, degraded,
			(wasted / time.Duration(iters)).Round(time.Nanosecond), overhead)
	}
	dev.Faults = nil
	fmt.Printf("  recovered solutions bitwise identical to fault-free where no system degraded\n")
	return nil
}

// timeSolves runs fn iters times, returning mean wall-clock time and
// mean heap allocation count per call.
func timeSolves(iters int, fn func() error) (time.Duration, uint64, error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return elapsed / time.Duration(iters), (ms1.Mallocs - ms0.Mallocs) / uint64(iters), nil
}
