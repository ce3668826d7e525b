// Command tridsolve solves tridiagonal systems from the command line:
// either generated workloads (-kind, -m, -n) or a system read from a
// file (-in) with one "a b c d" row per line. Any of the module's
// algorithms can be selected, and every solve is verified.
//
//	tridsolve -m 512 -n 2048                 # hybrid on a batch
//	tridsolve -algo cr -n 4095               # cyclic reduction
//	tridsolve -algo davidson -m 4 -n 65536   # the §V baseline
//	tridsolve -in sys.txt -algo pcr          # solve a file
//	tridsolve -algo reference -m 4 -k 6      # the hybrid on host twins alone
//
// The -guard flag routes the solve through the guarded pipeline
// (per-system fault isolation with a pivoting rescue) and prints a
// per-system diagnosis of every rescued or failed system; -inject
// deterministically corrupts chosen systems to demonstrate the rescue:
//
//	tridsolve -guard -m 64 -n 1024 -inject 7:zero-diag,23:singular
//
// The -chaos flag injects seeded transient device faults (aborted
// launches, corrupted output, hung blocks) at the given rate per
// kernel block and lets the solver's checkpointed-retry layer recover;
// the summary line reports what the recovery cost:
//
//	tridsolve -m 512 -n 2048 -chaos 0.05
//	tridsolve -guard -m 64 -n 1024 -chaos 0.1 -inject 7:zero-diag
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gputrid"
	"gputrid/internal/core"
	"gputrid/internal/cpu"
	"gputrid/internal/davidson"
	"gputrid/internal/egloff"
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/pcr"
	"gputrid/internal/trifile"
	"gputrid/internal/workload"
	"gputrid/internal/zhang"
)

func main() {
	var (
		algo   = flag.String("algo", "hybrid", "hybrid|reference|cpu|gtsv|cr|pcr|rd|davidson|egloff|zhang-cr|zhang-pcr|zhang-crpcr|zhang-pcrthomas")
		m      = flag.Int("m", 1, "number of systems")
		n      = flag.Int("n", 1024, "rows per system")
		kind   = flag.String("kind", "diag-dominant", "diag-dominant|toeplitz|heat|spline")
		k      = flag.Int("k", gputrid.AutoK, "PCR steps for hybrid and reference (-1 = auto)")
		seed   = flag.Uint64("seed", 1, "workload seed")
		in     = flag.String("in", "", "read a system/batch from file (text or TRID binary)")
		out    = flag.String("out", "", "write the solution vector to file")
		fuse   = flag.Bool("fuse", false, "run the §III.C fused kernel (hybrid; a one-shot ablation)")
		cond   = flag.Bool("cond", false, "estimate the condition number of system 0")
		quiet  = flag.Bool("q", false, "print only the summary line")
		guard  = flag.Bool("guard", false, "guarded solve: per-system fault isolation with a pivoting rescue")
		inject = flag.String("inject", "", "guarded fault injection, e.g. 3:zero-diag,7:singular (kinds: corrupt|zero-diag|singular|nan)")
		chaos  = flag.Float64("chaos", 0, "transient device-fault rate per kernel block (hybrid/guard; seeded by -seed)")
	)
	flag.Parse()

	if *chaos < 0 || *chaos > 1 {
		fail(fmt.Errorf("-chaos wants a rate in [0, 1], got %g", *chaos))
	}
	if *fuse && (*guard || *chaos > 0) {
		usage(fmt.Errorf("-fuse cannot be combined with -guard or -chaos (the fused kernel is a one-shot ablation with no recovery layer)"))
	}
	b, err := buildBatch(*in, *kind, *m, *n, *seed)
	if err != nil {
		fail(err)
	}
	if *cond {
		k1 := matrix.Cond1Est(b.System(0), cpu.SolveGTSV[float64])
		fmt.Printf("cond1(system 0) ~= %.3e\n", k1)
	}
	if *guard {
		solveGuarded(b, *k, *inject, *out, *chaos, *seed)
		return
	}
	if *inject != "" {
		fail(fmt.Errorf("-inject requires -guard"))
	}
	if *chaos > 0 && *algo != "hybrid" {
		fail(fmt.Errorf("-chaos requires -algo hybrid or -guard (algorithm %q has no recovery layer)", *algo))
	}

	start := time.Now()
	x, detail, err := solve(*algo, b, *k, *fuse, *chaos, *seed)
	if err != nil {
		fail(err)
	}
	wall := time.Since(start)

	res := matrix.MaxResidual(b, x)
	tol := matrix.ResidualTolerance[float64](b.N)
	status := "OK"
	if !(res <= tol) {
		status = "FAILED"
	}
	fmt.Printf("%s: algo=%s M=%d N=%d residual=%.3e tol=%.1e wall=%v %s\n",
		status, *algo, b.M, b.N, res, tol, wall.Round(time.Microsecond), detail)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		if err := trifile.WriteSolution(f, x, b.M, b.N); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if !*quiet && b.N <= 16 {
		for i := 0; i < b.M; i++ {
			fmt.Printf("x[%d] = %v\n", i, x[i*b.N:(i+1)*b.N])
		}
	}
	if status != "OK" {
		os.Exit(1)
	}
}

func buildBatch(path, kind string, m, n int, seed uint64) (*matrix.Batch[float64], error) {
	if path == "" {
		var kd workload.Kind
		switch kind {
		case "diag-dominant":
			kd = workload.DiagDominant
		case "toeplitz":
			kd = workload.Toeplitz
		case "heat":
			kd = workload.Heat
		case "spline":
			kd = workload.Spline
		default:
			return nil, fmt.Errorf("unknown kind %q", kind)
		}
		return workload.Batch[float64](kd, m, n, seed), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= 4 && string(data[:4]) == "TRID" {
		return trifile.ReadBinary[float64](bytes.NewReader(data))
	}
	return trifile.ReadText[float64](bytes.NewReader(data))
}

func solve(algo string, b *matrix.Batch[float64], k int, fuse bool, chaos float64, seed uint64) ([]float64, string, error) {
	switch algo {
	case "hybrid":
		if fuse {
			return solveFused(b, k)
		}
		opts := []gputrid.Option{gputrid.WithK(k)}
		if chaos > 0 {
			opts = append(opts, gputrid.WithFaultInjection(&gputrid.FaultInjector{Seed: seed, Rate: chaos}))
		}
		res, err := gputrid.SolveBatch(b, opts...)
		if err != nil {
			return nil, "", err
		}
		detail := fmt.Sprintf("k=%d blocks/sys=%d modeled=%v",
			res.K, res.BlocksPerSystem, res.ModeledTime.Round(time.Nanosecond))
		if chaos > 0 {
			detail += " " + faultSummary(res.Faults)
		}
		return res.X, detail, nil
	case "cpu":
		x, err := gputrid.SolveCPU(b)
		return x, "", err
	case "gtsv":
		x, err := gputrid.SolveCPUPivoting(b)
		return x, "", err
	case "cr", "pcr", "rd":
		x := make([]float64, b.M*b.N)
		for i := 0; i < b.M; i++ {
			var xi []float64
			switch algo {
			case "cr":
				xi = pcr.SolveCR(b.System(i))
			case "pcr":
				xi = pcr.Solve(b.System(i))
			case "rd":
				xi = pcr.SolveRD(b.System(i))
			}
			copy(x[i*b.N:], xi)
		}
		return x, "", nil
	case "davidson":
		x, rep, err := davidson.Solve(davidson.Config{}, b)
		if err != nil {
			return nil, "", err
		}
		return x, fmt.Sprintf("globalSteps=%d subLen=%d", rep.GlobalSteps, rep.SubsystemLen), nil
	case "egloff":
		x, rep, err := egloff.Solve(nil, b)
		if err != nil {
			return nil, "", err
		}
		return x, fmt.Sprintf("steps=%d launches=%d", rep.Steps, rep.Stats.Launches), nil
	case "zhang-cr":
		x, _, err := zhang.KernelCR(gpusim.GTX480(), b, true)
		return x, "", err
	case "zhang-pcr":
		x, _, err := zhang.KernelPCR(gpusim.GTX480(), b)
		return x, "", err
	case "zhang-crpcr":
		x, _, err := zhang.KernelCRPCR(gpusim.GTX480(), b, 64)
		return x, "", err
	case "zhang-pcrthomas":
		x, _, err := zhang.KernelPCRThomas(gpusim.GTX480(), b, 5)
		return x, "", err
	case "reference":
		return core.SolveReference(b, k), "", nil
	default:
		return nil, "", fmt.Errorf("unknown algorithm %q", algo)
	}
}

// solveFused runs the hybrid with the §III.C fused kernel, a one-shot
// ablation with no recovery layer; a k that resolves to 0 has no PCR
// stage to fuse and runs the ordinary solve.
func solveFused(b *matrix.Batch[float64], k int) ([]float64, string, error) {
	dev := gpusim.GTX480()
	x, rep, err := core.SolveFused(core.Config{Device: dev, K: k}, b)
	if err != nil {
		return nil, "", err
	}
	modeled := time.Duration(core.ModeledTime[float64](dev, rep) * float64(time.Second))
	return x, fmt.Sprintf("k=%d blocks/sys=%d modeled=%v", rep.K, rep.BlocksPerSystem, modeled.Round(time.Nanosecond)), nil
}

// solveGuarded runs the guarded pipeline and prints the per-system
// diagnosis: a summary of systems per stage, then one line for every
// system that left the fast path. Exits 1 when any system was
// unrecoverable (the healthy solutions are still written to -out).
func solveGuarded(b *matrix.Batch[float64], k int, inject, out string, chaos float64, seed uint64) {
	opts := []gputrid.Option{gputrid.WithK(k)}
	if chaos > 0 {
		opts = append(opts, gputrid.WithFaultInjection(&gputrid.FaultInjector{Seed: seed, Rate: chaos}))
	}
	var pol gputrid.GuardPolicy
	if inject != "" {
		inj, err := parseInject(inject, b.M)
		if err != nil {
			fail(err)
		}
		pol.Inject = inj
	}
	opts = append(opts, gputrid.WithGuard(pol))

	start := time.Now()
	res, err := gputrid.SolveGuarded(b, opts...)
	if res == nil {
		fail(err)
	}
	wall := time.Since(start)

	st := res.Stages()
	status := "OK"
	if len(res.Failed) > 0 {
		status = "DEGRADED"
	}
	fmt.Printf("%s: algo=guarded M=%d N=%d fast=%d pivoted=%d failed=%d k=%d wall=%v\n",
		status, b.M, b.N, st[gputrid.StageFast], st[gputrid.StagePivot],
		st[gputrid.StageFailed], res.K, wall.Round(time.Microsecond))
	if chaos > 0 {
		fmt.Printf("  chaos: rate=%g %s\n", chaos, faultSummary(res.Faults))
	}
	for _, rep := range res.Reports {
		if rep.Stage == gputrid.StageFast {
			continue
		}
		line := fmt.Sprintf("  system %d: stage=%s residual %.3e -> %.3e",
			rep.System, rep.Stage, rep.ResidualBefore, rep.ResidualAfter)
		if rep.CondEst > 0 {
			line += fmt.Sprintf(" cond1~%.1e", rep.CondEst)
		}
		if rep.Err != nil {
			line += fmt.Sprintf(" (%v)", rep.Err.Unwrap())
		}
		fmt.Println(line)
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fail(err)
		}
		if err := trifile.WriteSolution(f, res.X, b.M, b.N); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if len(res.Failed) > 0 {
		os.Exit(1)
	}
}

// parseInject parses "SYS:KIND[,SYS:KIND...]" fault specs.
func parseInject(spec string, m int) (*gputrid.GuardInjection, error) {
	inj := &gputrid.GuardInjection{Seed: 1}
	for _, part := range strings.Split(spec, ",") {
		sysStr, kindStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad -inject entry %q (want SYS:KIND)", part)
		}
		sys, err := strconv.Atoi(sysStr)
		if err != nil || sys < 0 || sys >= m {
			return nil, fmt.Errorf("bad -inject system %q (batch has %d systems)", sysStr, m)
		}
		var kind gputrid.GuardFault
		switch kindStr {
		case "corrupt":
			kind = gputrid.GuardFault{System: sys, Kind: gputrid.FaultCorruptSolution}
		case "zero-diag":
			kind = gputrid.GuardFault{System: sys, Kind: gputrid.FaultZeroDiagonal}
		case "singular":
			kind = gputrid.GuardFault{System: sys, Kind: gputrid.FaultSingularMatrix}
		case "nan":
			kind = gputrid.GuardFault{System: sys, Kind: gputrid.FaultNaNCoefficient}
		default:
			return nil, fmt.Errorf("unknown -inject kind %q (corrupt|zero-diag|singular|nan)", kindStr)
		}
		inj.Faults = append(inj.Faults, kind)
	}
	return inj, nil
}

// faultSummary renders a FaultReport for the summary line.
func faultSummary(fr *gputrid.FaultReport) string {
	if fr == nil || !fr.Any() {
		return "faults=0"
	}
	s := fmt.Sprintf("faults=%d retries=%d degraded=%d", fr.Faults, fr.TotalRetries(), len(fr.Degraded))
	if fr.WastedModeledTime > 0 {
		s += fmt.Sprintf(" wasted=%v", fr.WastedModeledTime.Round(time.Nanosecond))
	}
	return s
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tridsolve: %v\n", err)
	os.Exit(1)
}

// usage reports a flag combination the command refuses (exit 2, the
// flag package's usage-error code).
func usage(err error) {
	fmt.Fprintf(os.Stderr, "tridsolve: %v\n", err)
	os.Exit(2)
}
