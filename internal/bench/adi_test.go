package bench

import (
	"math"
	"testing"

	"gputrid"
	"gputrid/adi"
)

// heatN is the grid edge of the ADI benchmark: the adi-step workload's
// 192×192 Peaceman-Rachford grid.
const heatN = 192

// BenchmarkHeat2DStep is one Peaceman-Rachford step on a 192×192 grid
// whose two line sweeps both go through one reused Solver, as a
// time-stepping application runs it. A warm step is allocation-free
// (check with -benchmem): the stepper owns its line batches and writes
// only their right-hand sides, and the Solver replays its recording.
func BenchmarkHeat2DStep(b *testing.B) {
	s, err := gputrid.NewSolver[float64](heatN, heatN)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	dst := make([]float64, heatN*heatN)
	h := &adi.Heat2D[float64]{Grid: adi.NewGrid2D(heatN, heatN), Alpha: 1,
		Backend: func(bt *gputrid.Batch[float64]) ([]float64, error) {
			return dst, s.SolveBatchInto(dst, bt)
		}}
	u := make([]float64, heatN*heatN)
	f := make([]float64, heatN*heatN)
	for j := 0; j < heatN; j++ {
		for i := 0; i < heatN; i++ {
			w := math.Sin(math.Pi*float64(i+1)/(heatN+1)) * math.Sin(math.Pi*float64(j+1)/(heatN+1))
			u[j*heatN+i], f[j*heatN+i] = w, 10*w
		}
	}
	if err := h.Step(u, f, 1e-4); err != nil { // the Solver's recording solve
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Step(u, f, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}
