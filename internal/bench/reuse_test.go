package bench

import (
	"fmt"
	"testing"
	"time"

	"gputrid/internal/core"
	"gputrid/internal/cpu"
	"gputrid/internal/workload"
)

// The acceptance shape of the reusable-solver work: a mid-size batch
// solved repeatedly, as a time-stepping loop would.
const (
	reuseM = 64
	reuseN = 1024
)

// BenchmarkSolveOneShot is the baseline: every solve builds a fresh
// pipeline and allocates its arenas. Only the process's first solve of
// the shape records the device events; the recording memo hands its
// Stats to every later pipeline of the shape, whose first solve runs
// the host twins. BenchmarkRecord measures the recording itself.
func BenchmarkSolveOneShot(b *testing.B) {
	batch := workload.Batch[float64](workload.DiagDominant, reuseM, reuseN, 1)
	cfg := core.Config{K: core.KAuto}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Solve(cfg, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveReuse is the steady state of a warmed pipeline: arenas
// pre-allocated, device events recorded once and replayed, zero heap
// allocations per solve (check with -benchmem). Compare against
// BenchmarkSolveOneShot; results are bitwise identical (see
// core.TestPipelineReuseMatchesSolve).
func BenchmarkSolveReuse(b *testing.B) {
	batch := workload.Batch[float64](workload.DiagDominant, reuseM, reuseN, 1)
	p, err := core.NewPipeline[float64](core.Config{K: core.KAuto}, reuseM, reuseN)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	dst := make([]float64, reuseM*reuseN)
	if err := p.SolveInto(dst, batch); err != nil { // recording solve
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SolveInto(dst, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// recordShapes are the cold recordings BenchmarkRecord measures: the
// reuse shape at the Table III k, adi-step's 192x192 grid, and the
// k = 0 slab pipeline a 4-device distributed solve of 131 073 rows
// builds per device (three systems of about 32 768 rows). That last
// one is a one-block launch: block sampling has nothing to merge
// there, so its full/sampled ratio stays near 1.
var recordShapes = []struct {
	name string
	k    int
	m, n int
}{
	{"64x1024", core.KAuto, reuseM, reuseN},
	{"192x192", core.KAuto, 192, 192},
	{"3x32768", 0, 3, 32768},
}

// BenchmarkRecord measures one cold solve per iteration: the memo is
// emptied and the pipeline built outside the timer, so ns/op and
// allocs/op are the recording, which simulates one block per
// equivalence class, and the twin run every solve makes. Each
// iteration also times, outside the timer, the cold solve a full
// recording would make: a recording of the same geometry that
// simulates every block, plus a warm solve on the same pipeline, which
// runs the twins alone. full/sampled is the ratio of the two totals, a
// same-run figure.
func BenchmarkRecord(b *testing.B) {
	for _, sh := range recordShapes {
		b.Run(sh.name, func(b *testing.B) {
			batch := workload.Batch[float64](workload.DiagDominant, sh.m, sh.n, 1)
			dst := make([]float64, sh.m*sh.n)
			var sampled, full time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				core.ResetRecordMemo()
				p, err := core.NewPipeline[float64](core.Config{K: sh.k}, sh.m, sh.n)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				b.StartTimer()
				if err := p.SolveInto(dst, batch); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				sampled += time.Since(start)
				start = time.Now()
				if _, err := p.RecordFull(batch); err != nil {
					b.Fatal(err)
				}
				if err := p.SolveInto(dst, batch); err != nil {
					b.Fatal(err)
				}
				full += time.Since(start)
				p.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(full)/float64(sampled), "full/sampled")
		})
	}
}

// TestRecordAllocCeiling pins the allocations of a cold 3x32768 k = 0
// pipeline: build, recording solve and close. The coalescing slots
// come in fixed-size chunks with no per-slot heap state, so the
// recording allocates per chunk, not per dynamic access of its longest
// thread.
func TestRecordAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 100
	const m, n = 3, 32768
	batch := workload.Batch[float64](workload.DiagDominant, m, n, 1)
	dst := make([]float64, m*n)
	var err error
	got := testing.AllocsPerRun(3, func() {
		core.ResetRecordMemo()
		var p *core.Pipeline[float64]
		if p, err = core.NewPipeline[float64](core.Config{K: 0}, m, n); err == nil {
			err = p.SolveInto(dst, batch)
			p.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got > ceiling {
		t.Fatalf("cold 3x32768 build, recording and close made %.0f allocations, ceiling %d", got, ceiling)
	}
}

// k0Shapes are Table III k = 0 batches (M >= 1024), the size of the
// Fig. 12(a) and 13(a) requests.
var k0Shapes = []struct{ m, n int }{{1024, 512}, {2048, 1024}}

// BenchmarkK0Contiguous times a warm contiguous K: 0 pipeline, whose
// twin runs Thomas over the caller's rows, against the one-core
// cpu.SolveBatchSeq on the same batch, alternating within every
// iteration. It reports each one's ms per solve and their same-run
// ratio, pipe/seq, which must stay at or below 1. ns/op and the
// allocation counts are the two solves together; the baseline
// allocates its solution and workspace, the pipeline nothing.
func BenchmarkK0Contiguous(b *testing.B) {
	for _, sh := range k0Shapes {
		b.Run(fmt.Sprintf("%dx%d", sh.m, sh.n), func(b *testing.B) {
			batch := workload.Batch[float64](workload.DiagDominant, sh.m, sh.n, 1)
			p, err := core.NewPipeline[float64](core.Config{K: 0}, sh.m, sh.n)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			dst := make([]float64, sh.m*sh.n)
			if err := p.SolveInto(dst, batch); err != nil { // records or takes the memo's Stats
				b.Fatal(err)
			}
			var pipe, seq time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := p.SolveInto(dst, batch); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, err := cpu.SolveBatchSeq(batch); err != nil {
					b.Fatal(err)
				}
				pipe += t1.Sub(t0)
				seq += time.Since(t1)
			}
			b.ReportMetric(pipe.Seconds()*1e3/float64(b.N), "pipe_ms/op")
			b.ReportMetric(seq.Seconds()*1e3/float64(b.N), "seq_ms/op")
			b.ReportMetric(float64(pipe)/float64(seq), "pipe/seq")
		})
	}
}
