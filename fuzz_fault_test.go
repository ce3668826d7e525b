package gputrid

// Fuzz target for the transient-fault-tolerance layer. The engine
// explores fault schedules (kind x kernel x block x repeat) and
// background fault rates searching for a recovery that is anything
// other than the contract: a recovered solve is bitwise identical to
// the fault-free solve (or residual-clean where systems degraded to
// the pivoting fallback), and a failure is a typed error — never NaN,
// never a partially written batch.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

func FuzzFaultSchedule(f *testing.F) {
	// seed, m, n, kind, kernel, block, repeat, rate%.
	f.Add(uint32(1), uint8(5), uint8(120), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(uint32(2), uint8(8), uint8(200), uint8(1), uint8(2), uint8(0), uint8(2), uint8(0))  // corrupt tiledPCR
	f.Add(uint32(3), uint8(3), uint8(64), uint8(2), uint8(3), uint8(1), uint8(1), uint8(5))   // hang pThomasStrided
	f.Add(uint32(4), uint8(12), uint8(90), uint8(0), uint8(1), uint8(0), uint8(5), uint8(0))  // repeat > retry budget
	f.Add(uint32(5), uint8(6), uint8(150), uint8(1), uint8(0), uint8(0), uint8(0), uint8(10)) // wildcard + rate
	f.Fuzz(func(t *testing.T, seed uint32, mRaw, nRaw, kindRaw, kernRaw, blockRaw, repeatRaw, rateRaw uint8) {
		m := int(mRaw)%12 + 1
		n := int(nRaw)%192 + 1
		r := num.NewRNG(uint64(seed) + 3)
		b := NewBatch[float64](m, n)
		for i := 0; i < m; i++ {
			base := i * n
			for j := 0; j < n; j++ {
				var a, c float64
				if j > 0 {
					a = r.Range(-1, 1)
				}
				if j < n-1 {
					c = r.Range(-1, 1)
				}
				b.Lower[base+j] = a
				b.Upper[base+j] = c
				b.Diag[base+j] = math.Abs(a) + math.Abs(c) + r.Range(0.5, 1.5)
				b.RHS[base+j] = r.Range(-100, 100)
			}
		}
		clean, err := SolveBatch(b)
		if err != nil {
			t.Fatalf("fault-free reference m=%d n=%d: %v", m, n, err)
		}

		kernels := []string{"", "pThomas", "tiledPCR", "pThomasStrided"}
		inj := &FaultInjector{
			Seed: uint64(seed),
			Rate: float64(int(rateRaw)%16) / 100, // 0 .. 0.15
			Schedule: []ScheduledFault{{
				Kernel: kernels[int(kernRaw)%len(kernels)],
				Block:  int(blockRaw)%8 - 1, // -1 (any block) .. 6
				Kind:   DeviceFaultKind(kindRaw) % 3,
				Repeat: int(repeatRaw) % 6, // 0 (default 1) .. 5: may exhaust the budget
			}},
		}
		s, err := NewSolver[float64](m, n,
			WithFaultInjection(inj),
			WithRetry(RetryPolicy{BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond}))
		if err != nil {
			t.Fatalf("NewSolver m=%d n=%d: %v", m, n, err)
		}
		defer s.Close()

		dst := make([]float64, m*n)
		tol := matrix.ResidualTolerance[float64](n)
		for iter := 0; iter < 2; iter++ { // recording solve, then one replay
			err := s.SolveBatchIntoCtx(context.Background(), dst, b)
			if err != nil {
				if !errors.Is(err, ErrFaulted) && !errors.Is(err, ErrCancelled) {
					t.Fatalf("iter %d: untyped failure %v (inj %+v)", iter, err, inj.Schedule[0])
				}
				continue
			}
			for i, v := range dst {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("iter %d: non-finite element %d = %v after recovered solve (inj %+v)",
						iter, i, v, inj.Schedule[0])
				}
			}
			degraded := make(map[int]bool)
			if fr := s.FaultReport(); fr != nil {
				for _, sys := range fr.Degraded {
					degraded[sys] = true
				}
			}
			for i := 0; i < m; i++ {
				row := dst[i*n : (i+1)*n]
				if degraded[i] {
					// Rescued by the pivoting fallback: not bitwise, but
					// it must still solve the system.
					if res := matrix.Residual(b.System(i), row); !(res <= tol) {
						t.Fatalf("iter %d: degraded system %d residual %.3e > %.3e (inj %+v)",
							iter, i, res, tol, inj.Schedule[0])
					}
					continue
				}
				for j, v := range row {
					if v != clean.X[i*n+j] {
						t.Fatalf("iter %d: system %d element %d = %v, fault-free = %v (inj %+v)",
							iter, i, j, v, clean.X[i*n+j], inj.Schedule[0])
					}
				}
			}
		}
	})
}
