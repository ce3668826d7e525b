package bench

import (
	"context"
	"errors"
	"testing"
	"time"

	"gputrid"
	"gputrid/internal/batcher"
	"gputrid/internal/workload"
)

// The serving shape of the coalescing work: many concurrent 1-system
// requests — the worst case for per-request dispatch (every request
// pays a full lease/pipeline/transpose round for one row of work) and
// the best case for the batching front-end (flights fill to the
// watermark and solve as one interleaved megabatch).
const (
	coalesceN           = 512
	coalesceParallelism = 32
)

// BenchmarkServePerRequest is the baseline the batching front-end is
// judged against: every 1-system request takes its own pooled solver
// lease and runs its own solve. Requests shed by admission control
// back off and retry, as a real client would.
func BenchmarkServePerRequest(b *testing.B) {
	p := gputrid.NewPool[float64](gputrid.PoolConfig{Capacity: 2, QueueLimit: 256})
	defer p.Close(context.Background())
	if err := p.Warm(1, coalesceN); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.SetParallelism(coalesceParallelism)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		batch := workload.Batch[float64](workload.DiagDominant, 1, coalesceN, 9)
		for pb.Next() {
			for {
				_, err := p.Solve(ctx, batch)
				if err == nil {
					break
				}
				if errors.Is(err, gputrid.ErrOverloaded) {
					time.Sleep(20 * time.Microsecond)
					continue
				}
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkServeCoalesced is the same offered load through the
// coalescing assembly tridserve -batch runs, batcher.New over a
// megabatch solve: concurrent 1-system requests merge into
// interleaved megabatches (born in the k = 0 layout, no transpose)
// and share one pooled megabatch solver lease per flight. Compare
// ns/op against BenchmarkServePerRequest — the ratio is the
// coalescing speedup recorded in BENCH_batching.json.
func BenchmarkServeCoalesced(b *testing.B) {
	p := gputrid.NewPool[float64](gputrid.PoolConfig{Capacity: 2, QueueLimit: 256})
	defer p.Close(context.Background())
	bt, err := batcher.New(batcher.Config[float64]{
		MaxBatch:         coalesceParallelism,
		MaxWait:          200 * time.Microsecond,
		MaxQueuedFlights: 8,
		Solve:            p.SolveMegabatch,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer bt.Close()
	ctx := context.Background()
	// solve submits one request with a fresh caller-owned solution, as
	// tridserve does per request.
	solve := func(batch *gputrid.Batch[float64]) error {
		_, err := bt.Solve(ctx, &batcher.Request[float64]{
			M: batch.M, N: batch.N,
			Lower: batch.Lower, Diag: batch.Diag, Upper: batch.Upper, RHS: batch.RHS,
			X: make([]float64, batch.M*batch.N),
		})
		return err
	}
	// One warmup flight builds the megabatch station before timing, the
	// coalesced analogue of the per-request bench's Warm.
	warm := workload.Batch[float64](workload.DiagDominant, 1, coalesceN, 9)
	if err := solve(warm); err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(coalesceParallelism)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		batch := workload.Batch[float64](workload.DiagDominant, 1, coalesceN, 9)
		for pb.Next() {
			for {
				err := solve(batch)
				if err == nil {
					break
				}
				if errors.Is(err, batcher.ErrSaturated) {
					time.Sleep(20 * time.Microsecond)
					continue
				}
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := bt.Stats()
	// The probe runs (b.N of 1) legitimately flush single-system
	// flights; once there is enough work to overlap, the bench must
	// actually coalesce or its numbers are meaningless.
	if b.N >= 2*coalesceParallelism && st.MaxFlushSystems < 2 {
		b.Fatalf("MaxFlushSystems = %d: the bench never coalesced", st.MaxFlushSystems)
	}
	b.ReportMetric(float64(st.FlushedSystems)/float64(st.Flushes()), "systems/flush")
}
