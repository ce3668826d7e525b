package bench

import (
	"fmt"
	"strings"

	"gputrid/internal/core"
	"gputrid/internal/davidson"
	"gputrid/internal/egloff"
	"gputrid/internal/gpusim"
	"gputrid/internal/workload"
)

// Profile runs one configuration through the chosen solver and renders
// a per-kernel profiler report (the simulator's nvprof): time, share,
// binding constraint, and counters for each launch.
func (e *Env) Profile(solver string, m, n, k int) (string, error) {
	b := workload.Batch[float64](workload.DiagDominant, m, n, e.Seed)
	tl := gpusim.NewTimeline(e.GPU)
	var head string
	switch solver {
	case "hybrid":
		cfg := core.Config{Device: e.GPU, K: k}
		_, rep, err := core.Solve(cfg, b)
		if err != nil {
			return "", err
		}
		for _, st := range rep.Kernels {
			tl.Record(st, 8)
		}
		head = fmt.Sprintf("hybrid solve M=%d N=%d (k=%d, %d block(s)/system)",
			m, n, rep.K, rep.BlocksPerSystem)
	case "hybrid-fused":
		_, rep, err := core.SolveFused(core.Config{Device: e.GPU, K: k}, b)
		if err != nil {
			return "", err
		}
		for _, st := range rep.Kernels {
			tl.Record(st, 8)
		}
		head = fmt.Sprintf("fused hybrid solve M=%d N=%d (k=%d)", m, n, rep.K)
	case "davidson":
		_, rep, err := davidson.Solve(davidson.Config{Device: e.GPU}, b)
		if err != nil {
			return "", err
		}
		for _, st := range rep.Kernels {
			tl.Record(st, 8)
		}
		head = fmt.Sprintf("davidson solve M=%d N=%d (%d global steps, subLen=%d)",
			m, n, rep.GlobalSteps, rep.SubsystemLen)
	case "egloff":
		_, rep, err := egloff.Solve(e.GPU, b)
		if err != nil {
			return "", err
		}
		for _, st := range rep.Kernels {
			tl.Record(st, 8)
		}
		head = fmt.Sprintf("egloff global PCR M=%d N=%d (%d steps)", m, n, rep.Steps)
	default:
		return "", fmt.Errorf("bench: unknown profile solver %q (hybrid|hybrid-fused|davidson|egloff)", solver)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== profile: %s on %s ==\n", head, e.GPU.Name)
	sb.WriteString(tl.Report())
	return sb.String(), nil
}
