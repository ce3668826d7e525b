package bench

import (
	"context"
	"fmt"
	"testing"

	"gputrid"
	"gputrid/internal/core"
	"gputrid/internal/gpusim"
	"gputrid/internal/workload"
)

// The distributed scaling shape: one huge-N batch, far beyond what a
// single device's hybrid pipeline would be asked to serve, split into
// one slab per simulated device.
const (
	distBenchM = 4
	distBenchN = 1<<16 + 1
)

// BenchmarkDistributed measures the multi-device distributed solve
// across device counts on the simulated NVLink-mesh fabric. ns/op is
// the host-side simulation cost (environment-relative); the figures
// of merit are the deterministic modeled metrics: the pipelined and
// serial device-side makespans of the final assignment (their ratio
// is the transfer/compute overlap win, their trend across device
// counts is the scaling figure recorded in BENCH_distributed.json and
// EXPERIMENTS.md) and the interconnect traffic per solve.
func BenchmarkDistributed(b *testing.B) {
	batch := workload.Batch[float64](workload.DiagDominant, distBenchM, distBenchN, 11)
	for _, devs := range []int{1, 2, 4, 8} {
		// slabs == devices is the fleet default; slabs == 4*devices
		// oversubscribes each device so its copy/compute engines
		// overlap across slabs (pipelined < serial).
		for _, slabs := range []int{devs, 4 * devs} {
			b.Run(fmt.Sprintf("devices=%d/slabs=%d", devs, slabs), func(b *testing.B) {
				benchDistributed(b, batch, devs, slabs)
			})
		}
	}
}

func benchDistributed(b *testing.B, batch *gputrid.Batch[float64], devs, slabs int) {
	topo, err := gpusim.UniformTopology(devs, gpusim.NVLinkMesh(), gpusim.GTX480())
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.NewDistSolver[float64](core.DistConfig{Topology: topo, Slabs: slabs}, distBenchM, distBenchN)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	dst := make([]float64, distBenchM*distBenchN)
	rep := warmDistributed(b, s, dst, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err = s.SolveInto(context.Background(), dst, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.ModeledPipelined.Seconds()*1e3, "modeled-ms")
	b.ReportMetric(rep.ModeledSerial.Seconds()*1e3, "modeled-serial-ms")
	// rep.Comm is one solve's traffic (the sum of its slabs'
	// transfers), so it is reported as is: dividing it by b.N made the
	// metric depend on the iteration count.
	b.ReportMetric(float64(rep.Comm.TotalBytes())/1e6, "comm-MB/op")
}

// warmDistributed runs the recording solve outside the timed loop, so
// ns/op and allocs/op describe the replayed steady state at any
// -benchtime, and returns its report.
func warmDistributed(b *testing.B, s *core.DistSolver[float64], dst []float64, batch *gputrid.Batch[float64]) *core.DistReport {
	b.Helper()
	rep, err := s.SolveInto(context.Background(), dst, batch)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkDistributedHedged measures the hedging layer's two faces on
// a fixed 4-device/16-slab assignment. The clean cells bound hedging's
// overhead when nothing is wrong (the hedge scan runs, finds no
// outlier, launches nothing — modeled-ms must stay within 5% of the
// disabled cell, the invariant pinned in BENCH_grayfail.json). The
// straggler cells put a silent 8x slowdown on one device and show the
// tail-latency rescue: disabled, the makespan is hostage to the slow
// device; enabled, outlier slabs are speculatively re-run on the
// least-loaded survivor and the modeled makespan collapses back toward
// the clean figure. Hedging is modeled-time arbitration over identical
// slab solves, so every cell's output is bitwise identical.
func BenchmarkDistributedHedged(b *testing.B) {
	batch := workload.Batch[float64](workload.DiagDominant, distBenchM, distBenchN, 11)
	const devs, slabs = 4, 16
	for _, tc := range []struct {
		name    string
		slow    float64 // SlowFactor on the last device (0 = healthy)
		disable bool
	}{
		{"clean/hedge=off", 0, true},
		{"clean/hedge=on", 0, false},
		{"straggler/hedge=off", 8, true},
		{"straggler/hedge=on", 8, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			topo, err := gpusim.UniformTopology(devs, gpusim.NVLinkMesh(), gpusim.GTX480())
			if err != nil {
				b.Fatal(err)
			}
			if tc.slow > 0 {
				topo.Device(devs - 1).SlowFactor = tc.slow
			}
			s, err := core.NewDistSolver[float64](core.DistConfig{
				Topology: topo,
				Slabs:    slabs,
				Hedge:    core.HedgePolicy{Disable: tc.disable},
			}, distBenchM, distBenchN)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			dst := make([]float64, distBenchM*distBenchN)
			rep := warmDistributed(b, s, dst, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep, err = s.SolveInto(context.Background(), dst, batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.ModeledPipelined.Seconds()*1e3, "modeled-ms")
			b.ReportMetric(float64(rep.Hedges), "hedges")
			b.ReportMetric(float64(rep.HedgeWins), "hedge-wins")
		})
	}
}
