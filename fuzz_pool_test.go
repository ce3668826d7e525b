package gputrid

// Fuzz target for the serving pool's admission control. The engine
// explores (shape, deadline, cancel-at) schedules fired concurrently
// at a deliberately tiny pool, searching for any outcome other than
// the contract: a request either returns the exact serial-reference
// solution, or one of the typed admission errors (ErrOverloaded,
// ErrCancelled) — never an untyped failure, never a wrong element,
// and the subsequent graceful Close never deadlocks or leaks. A
// non-zero pivot zeroes the leading pivot of one drawn system, which
// the non-pivoting fast path cannot solve: the direct and coalesced
// routes must then give the same verdict on it, the same bits when
// the host rescue succeeds and ErrUnrecoverable on both when it does
// not, while every other system keeps the one-shot solve's bits.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gputrid/internal/batcher"
	"gputrid/internal/workload"
)

func FuzzPoolAdmission(f *testing.F) {
	f.Add(uint32(1), uint8(4), uint8(64), uint8(0), []byte{0, 1, 2, 3})
	f.Add(uint32(2), uint8(1), uint8(200), uint8(0), []byte{3, 3, 3, 0, 0, 0, 0, 0})
	f.Add(uint32(3), uint8(8), uint8(96), uint8(0), []byte{2, 2, 2, 2, 1})
	f.Add(uint32(4), uint8(2), uint8(33), uint8(0), []byte{0})
	f.Add(uint32(5), uint8(3), uint8(40), uint8(2), []byte{0, 1, 3})
	f.Add(uint32(6), uint8(2), uint8(0), uint8(1), []byte{0, 0})
	f.Fuzz(func(t *testing.T, seed uint32, mRaw, nRaw, pivot uint8, sched []byte) {
		m := int(mRaw)%8 + 1
		n := int(nRaw)%160 + 1
		if len(sched) > 24 {
			sched = sched[:24]
		}
		if len(sched) == 0 {
			return
		}
		b := workload.Batch[float64](workload.DiagDominant, m, n, uint64(seed)+11)
		ref, err := SolveBatch(b)
		if err != nil {
			t.Fatalf("reference m=%d n=%d: %v", m, n, err)
		}
		bad := -1
		if pivot != 0 {
			bad = int(pivot) % m
			b.Diag[bad*n] = 0
		}

		p := NewPool[float64](PoolConfig{Capacity: 1, QueueLimit: 2})
		var wg sync.WaitGroup
		errs := make([]error, len(sched))
		results := make([][]float64, len(sched))
		for i, op := range sched {
			wg.Add(1)
			go func(i int, op byte) {
				defer wg.Done()
				ctx := context.Background()
				var cancel context.CancelFunc
				switch op % 4 {
				case 1: // generous deadline
					ctx, cancel = context.WithTimeout(ctx, 30*time.Second)
				case 2: // hopeless deadline
					ctx, cancel = context.WithTimeout(ctx, time.Duration(op)*time.Microsecond)
				case 3: // cancelled mid-flight
					ctx, cancel = context.WithCancel(ctx)
					go func(c context.CancelFunc) {
						time.Sleep(time.Duration(op) * 3 * time.Microsecond)
						c()
					}(cancel)
				}
				if cancel != nil {
					defer cancel()
				}
				res, err := p.Solve(ctx, b)
				errs[i] = err
				if err == nil {
					results[i] = res.X
				}
			}(i, op)
		}
		wg.Wait()

		// The serial references, after the schedule so it meets a cold
		// pool: the direct route, and the coalesced route through a
		// batcher over the same pool.
		ctx := context.Background()
		want, derr := p.Solve(ctx, b)
		bt, err := batcher.New(batcher.Config[float64]{MaxBatch: 8, Solve: p.SolveMegabatch})
		if err != nil {
			t.Fatal(err)
		}
		xc, _, cerr := coalesce(ctx, bt, b)
		bt.Close()
		if derr != nil || cerr != nil {
			if !errors.Is(derr, ErrUnrecoverable) || !errors.Is(cerr, ErrUnrecoverable) || bad < 0 {
				t.Fatalf("system %d: direct route %v, coalesced route %v; want ErrUnrecoverable on both", bad, derr, cerr)
			}
		} else {
			for j, v := range want.X {
				if i := j / n; i == bad && v != xc[j] {
					t.Fatalf("rescued x[%d]: direct %v, coalesced %v", j, v, xc[j])
				} else if i != bad && v != ref.X[j] {
					t.Fatalf("healthy x[%d] = %v, one-shot %v", j, v, ref.X[j])
				}
			}
		}

		for i, err := range errs {
			if err != nil {
				if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrCancelled) &&
					(derr == nil || !errors.Is(err, ErrUnrecoverable)) {
					t.Fatalf("op %d (%d): untyped error %v", i, sched[i], err)
				}
				continue
			}
			if derr != nil {
				t.Fatalf("op %d: solved a batch the serial direct solve rejects (%v)", i, derr)
			}
			if len(results[i]) != m*n {
				t.Fatalf("op %d: |x| = %d, want %d", i, len(results[i]), m*n)
			}
			for j, v := range results[i] {
				if v != want.X[j] {
					t.Fatalf("op %d: x[%d] = %v, serial reference %v (partial or corrupt write)",
						i, j, v, want.X[j])
				}
			}
		}

		// Drain must complete cleanly: nothing is in flight anymore.
		ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		if err := p.Close(ctx); err != nil {
			t.Fatalf("close after schedule: %v", err)
		}
		if s := p.Stats(); s.InFlight != 0 || s.QueueDepth != 0 {
			t.Fatalf("pool did not settle: %+v", s)
		}
	})
}
