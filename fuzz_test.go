package gputrid

// Native Go fuzz targets. Under plain `go test` the seed corpus runs as
// regression tests; under `go test -fuzz=FuzzSolveAgreement .` the
// engine explores shapes and coefficient patterns searching for
// disagreement between the hybrid and the pivoted CPU reference.

import (
	"math"
	"testing"

	"gputrid/internal/cpu"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

func FuzzSolveAgreement(f *testing.F) {
	f.Add(uint32(1), uint8(3), uint8(40), uint8(2))
	f.Add(uint32(7), uint8(1), uint8(1), uint8(0))
	f.Add(uint32(99), uint8(16), uint8(200), uint8(6))
	f.Add(uint32(1234), uint8(2), uint8(255), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint32, mRaw, nRaw, kRaw uint8) {
		m := int(mRaw)%16 + 1
		n := int(nRaw)%256 + 1
		k := int(kRaw) % 9
		r := num.NewRNG(uint64(seed) + 1)
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
		res, err := SolveBatch(b, WithK(k))
		if err != nil {
			t.Fatalf("m=%d n=%d k=%d: %v", m, n, k, err)
		}
		want, err := cpu.SolveBatchGTSV(b)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if d := matrix.MaxRelDiff(res.X, want); d > 1e-8 {
			t.Errorf("m=%d n=%d k=%d: hybrid vs pivoted LU differ by %g", m, n, k, d)
		}
	})
}
