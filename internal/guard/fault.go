package guard

import (
	"math"

	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// FaultKind selects what a deterministic fault injection corrupts.
// Each kind is designed to land a system on a specific stage of the
// verdict, so tests can exercise every stage on demand.
type FaultKind int

const (
	// FaultCorruptSolution perturbs a few entries of the system's
	// fast-path solution (as a mis-applied pivot would), leaving a
	// finite but over-tolerance result: the pivoting re-solve repairs
	// it.
	FaultCorruptSolution FaultKind = iota
	// FaultZeroDiagonal zeroes the system's leading diagonal
	// coefficient: the very first pivot of every non-pivoting path
	// vanishes, so the fast path emits Inf/NaN, while the matrix stays
	// nonsingular — a row swap fixes it, so the pivoting GTSV re-solve
	// rescues the system. (Zeroing a random interior diagonal entry
	// would not do: Thomas only needs its *pivots* nonzero, and an
	// interior zero diagonal usually leaves every pivot fine.)
	FaultZeroDiagonal
	// FaultSingularMatrix zeroes the system's entire matrix while
	// keeping a nonzero right-hand side — genuinely unsolvable; the
	// pivoting re-solve fails too and the system gets a typed
	// SolveError.
	FaultSingularMatrix
	// FaultNaNCoefficient poisons one input coefficient with NaN —
	// garbage-in, rejected by the per-system input scan with
	// ErrNonFiniteInput before any solver runs.
	FaultNaNCoefficient
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultCorruptSolution:
		return "corrupt-solution"
	case FaultZeroDiagonal:
		return "zero-diagonal"
	case FaultSingularMatrix:
		return "singular-matrix"
	case FaultNaNCoefficient:
		return "nan-coefficient"
	default:
		return "unknown-fault"
	}
}

// Fault targets one system with one corruption kind.
type Fault struct {
	System int
	Kind   FaultKind
}

// Injection is the deterministic fault-injection hook of the guarded
// pipeline: the listed faults are applied at seeded pseudo-random rows,
// so a given (Seed, Faults) pair corrupts exactly the same entries on
// every run. Input faults are applied to a private clone of the batch —
// the caller's data is never modified.
type Injection struct {
	Seed   uint64
	Faults []Fault
}

// touchesInput reports whether any fault mutates the input batch (as
// opposed to the fast-path solution).
func (in *Injection) touchesInput() bool {
	for _, f := range in.Faults {
		if f.Kind != FaultCorruptSolution {
			return true
		}
	}
	return false
}

// rng derives the per-fault generator so each fault lands on rows
// independent of the others.
func (in *Injection) rng(f Fault) *num.RNG {
	return num.NewRNG(in.Seed ^ (uint64(f.System)*0x9E3779B97F4A7C15 + uint64(f.Kind) + 1))
}

// injectBatch applies the input-corrupting faults to b (a clone owned
// by the pipeline).
func injectBatch[T num.Real](in *Injection, b *matrix.Batch[T]) {
	for _, f := range in.Faults {
		if f.System < 0 || f.System >= b.M {
			continue
		}
		base := f.System * b.N
		r := in.rng(f)
		switch f.Kind {
		case FaultZeroDiagonal:
			b.Diag[base] = 0
		case FaultSingularMatrix:
			for j := 0; j < b.N; j++ {
				b.Lower[base+j] = 0
				b.Diag[base+j] = 0
				b.Upper[base+j] = 0
				if b.RHS[base+j] == 0 {
					b.RHS[base+j] = 1
				}
			}
		case FaultNaNCoefficient:
			b.Diag[base+r.Intn(b.N)] = T(math.NaN())
		}
	}
}

// injectSolution applies the solution-corrupting faults to the
// fast-path result x (contiguous batch layout, N rows per system).
func injectSolution[T num.Real](in *Injection, x []T, m, n int) {
	for _, f := range in.Faults {
		if f.Kind != FaultCorruptSolution || f.System < 0 || f.System >= m {
			continue
		}
		base := f.System * n
		r := in.rng(f)
		// Corrupt a handful of entries by a factor large enough to blow
		// the residual tolerance but keep everything finite.
		hits := 1 + n/8
		if hits > 8 {
			hits = 8
		}
		for h := 0; h < hits; h++ {
			j := base + r.Intn(n)
			x[j] = x[j]*T(r.Range(1.5, 3)) + T(r.Range(0.5, 1))
		}
	}
}
