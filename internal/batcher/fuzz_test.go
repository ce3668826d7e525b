package batcher

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gputrid/internal/core"
)

var (
	fuzzOnce sync.Once
	fuzzB    *Batcher[float64]
)

// fuzzBatcher is one shared wall-clock batcher per fuzz process: a
// tiny MaxWait keeps flights moving without any driver, and sharing
// it across inputs also fuzzes admission under concurrency (the fuzz
// engine runs workers in parallel).
func fuzzBatcher() *Batcher[float64] {
	fuzzOnce.Do(func() {
		b, err := New(Config[float64]{
			MaxBatch: 8,
			MaxWait:  100 * time.Microsecond,
			Solve:    echoSolve,
		})
		if err != nil {
			panic(err)
		}
		fuzzB = b
	})
	return fuzzB
}

// FuzzBatcherAdmission throws arbitrary shapes, plane-length skews
// and deadline pressure at Solve and requires the admission contract:
// never a panic or a hang, every error one of the typed sentinels,
// and every success an exact echo of the request's own RHS (no
// cross-request bleed, no partial writes).
func FuzzBatcherAdmission(f *testing.F) {
	f.Add(uint8(1), uint8(16), int8(0), uint8(0))
	f.Add(uint8(8), uint8(32), int8(0), uint8(1))
	f.Add(uint8(9), uint8(8), int8(0), uint8(0))   // too large
	f.Add(uint8(2), uint8(8), int8(-1), uint8(0))  // short plane
	f.Add(uint8(0), uint8(8), int8(0), uint8(0))   // zero systems
	f.Add(uint8(3), uint8(0), int8(1), uint8(2))   // zero rows
	f.Add(uint8(4), uint8(200), int8(0), uint8(3)) // new shapes -> shape limit
	f.Fuzz(func(t *testing.T, m, n uint8, skew int8, mode uint8) {
		b := fuzzBatcher()
		M, N := int(m%12), int(n)
		size := M * N
		req := &Request[float64]{
			M: M, N: N,
			Lower: make([]float64, size),
			Diag:  make([]float64, size),
			Upper: make([]float64, size),
			RHS:   make([]float64, size),
			X:     make([]float64, size),
		}
		for i := 0; i < size; i++ {
			req.RHS[i] = float64(i) + float64(m)/7
			req.Diag[i] = 4
		}
		if skew != 0 && size > 0 {
			// Deliberately corrupt one plane's length.
			cut := size - 1
			switch skew % 3 {
			case 0:
				req.Lower = req.Lower[:cut]
			case 1, -1:
				req.RHS = req.RHS[:cut]
			default:
				req.X = req.X[:cut]
			}
		}
		ctx := context.Background()
		var cancel context.CancelFunc
		switch mode % 3 {
		case 1:
			ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
		case 2:
			ctx, cancel = context.WithCancel(ctx)
			cancel()
		}
		if cancel != nil {
			defer cancel()
		}
		res, err := b.Solve(ctx, req)
		if err != nil {
			switch {
			case errors.Is(err, ErrTooLarge),
				errors.Is(err, ErrSaturated),
				errors.Is(err, ErrShapeLimit),
				errors.Is(err, ErrClosed),
				errors.Is(err, core.ErrShapeMismatch),
				errors.Is(err, core.ErrCancelled):
			default:
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if res.Systems != M || res.FlushSize < M || res.FlushSize > b.MaxBatch() {
			t.Fatalf("implausible result %+v for M=%d", res, M)
		}
		for i := range req.X {
			if req.X[i] != req.RHS[i] {
				t.Fatalf("dst[%d] = %v, want own RHS %v", i, req.X[i], req.RHS[i])
			}
		}
	})
}
