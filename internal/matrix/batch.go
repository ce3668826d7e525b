package matrix

import (
	"fmt"

	"gputrid/internal/num"
)

// Batch holds M independent tridiagonal systems of N rows each in the
// "contiguous" layout: system i occupies [i*N, (i+1)*N) of each diagonal
// slice. This is the natural CPU layout (one system after another) and
// the layout the MKL-proxy baselines consume.
type Batch[T num.Real] struct {
	M, N  int
	Lower []T
	Diag  []T
	Upper []T
	RHS   []T
}

// NewBatch allocates an M×N batch with all coefficients zero.
func NewBatch[T num.Real](m, n int) *Batch[T] {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("matrix: invalid batch shape %dx%d", m, n))
	}
	size := m * n
	return &Batch[T]{
		M: m, N: n,
		Lower: make([]T, size),
		Diag:  make([]T, size),
		Upper: make([]T, size),
		RHS:   make([]T, size),
	}
}

// System returns a view (shared storage) of system i as a System.
func (b *Batch[T]) System(i int) *System[T] {
	if i < 0 || i >= b.M {
		panic("matrix: batch system index out of range")
	}
	lo, hi := i*b.N, (i+1)*b.N
	return &System[T]{
		Lower: b.Lower[lo:hi],
		Diag:  b.Diag[lo:hi],
		Upper: b.Upper[lo:hi],
		RHS:   b.RHS[lo:hi],
	}
}

// SetSystem copies s into slot i of the batch.
func (b *Batch[T]) SetSystem(i int, s *System[T]) {
	if s.N() != b.N {
		panic("matrix: SetSystem size mismatch")
	}
	dst := b.System(i)
	copy(dst.Lower, s.Lower)
	copy(dst.Diag, s.Diag)
	copy(dst.Upper, s.Upper)
	copy(dst.RHS, s.RHS)
}

// Clone returns a deep copy of the batch.
func (b *Batch[T]) Clone() *Batch[T] {
	c := NewBatch[T](b.M, b.N)
	copy(c.Lower, b.Lower)
	copy(c.Diag, b.Diag)
	copy(c.Upper, b.Upper)
	copy(c.RHS, b.RHS)
	return c
}

// CheckShape reports whether M and N are positive and each of the four
// slices holds exactly M*N entries. It divides instead of multiplying,
// so a hostile shape whose product overflows int cannot wrap to a
// length that empty slices satisfy. O(1), allocation-free.
func (b *Batch[T]) CheckShape() error {
	size := len(b.Diag)
	if b.M <= 0 || b.N <= 0 || size%b.N != 0 || size/b.N != b.M ||
		len(b.Lower) != size || len(b.Upper) != size || len(b.RHS) != size {
		return fmt.Errorf("matrix: batch shape %dx%d does not match slice lengths (a=%d b=%d c=%d d=%d)",
			b.M, b.N, len(b.Lower), size, len(b.Upper), len(b.RHS))
	}
	return nil
}

// Validate checks the shape, then every system in the batch. A NaN/Inf
// coefficient is rejected up front with the system, array, and row of
// the offending entry, so garbage-in is distinguished from numerical
// breakdown inside a solver.
func (b *Batch[T]) Validate() error {
	if err := b.CheckShape(); err != nil {
		return err
	}
	for i := 0; i < b.M; i++ {
		if err := b.System(i).Validate(); err != nil {
			return fmt.Errorf("system %d: %w", i, err)
		}
	}
	return nil
}

// Interleaved holds M independent tridiagonal systems of N rows each in
// the "interleaved" layout: row j of system i lives at index j*M + i.
// Threads t, t+1, ... walking their own systems row-by-row therefore
// touch adjacent memory — the coalesced layout p-Thomas requires
// (paper §III.B), and the layout k-step PCR naturally produces for its
// 2^k subsystems.
type Interleaved[T num.Real] struct {
	M, N  int
	Lower []T
	Diag  []T
	Upper []T
	RHS   []T
}

// NewInterleaved allocates an M×N interleaved batch with all
// coefficients zero.
func NewInterleaved[T num.Real](m, n int) *Interleaved[T] {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("matrix: invalid interleaved shape %dx%d", m, n))
	}
	size := m * n
	return &Interleaved[T]{
		M: m, N: n,
		Lower: make([]T, size),
		Diag:  make([]T, size),
		Upper: make([]T, size),
		RHS:   make([]T, size),
	}
}

// Clone returns a deep copy.
func (v *Interleaved[T]) Clone() *Interleaved[T] {
	c := NewInterleaved[T](v.M, v.N)
	copy(c.Lower, v.Lower)
	copy(c.Diag, v.Diag)
	copy(c.Upper, v.Upper)
	copy(c.RHS, v.RHS)
	return c
}

// Strided addresses a batch of either layout, with a solution, through
// row strides: row j of system i sits at i·SS + j·RS of every
// coefficient plane and of X. SS = N and RS = 1 is the contiguous
// layout (Batch.Strided), SS = 1 and RS = M the interleaved one
// (Interleaved.Strided).
type Strided[T num.Real] struct {
	Lower, Diag, Upper, RHS, X []T
	N, SS, RS                  int
}

// Strided views the batch and its solution x by row strides.
func (b *Batch[T]) Strided(x []T) Strided[T] {
	return Strided[T]{Lower: b.Lower, Diag: b.Diag, Upper: b.Upper, RHS: b.RHS, X: x, N: b.N, SS: b.N, RS: 1}
}

// Strided views the batch and its solution x by row strides.
func (v *Interleaved[T]) Strided(x []T) Strided[T] {
	return Strided[T]{Lower: v.Lower, Diag: v.Diag, Upper: v.Upper, RHS: v.RHS, X: x, N: v.N, SS: 1, RS: v.M}
}

// ToInterleaved converts a contiguous batch to the interleaved layout.
func (b *Batch[T]) ToInterleaved() *Interleaved[T] {
	v := NewInterleaved[T](b.M, b.N)
	b.ToInterleavedInto(v)
	return v
}

// ToBatch converts an interleaved batch back to the contiguous layout.
func (v *Interleaved[T]) ToBatch() *Batch[T] {
	b := NewBatch[T](v.M, v.N)
	v.ToBatchInto(b)
	return b
}

// DeinterleaveVector converts a solution vector in interleaved order
// (row j of system i at j*M+i) into contiguous order (system i occupies
// [i*N,(i+1)*N)).
func DeinterleaveVector[T num.Real](x []T, m, n int) []T {
	if len(x) != m*n {
		panic("matrix: DeinterleaveVector length mismatch")
	}
	out := make([]T, m*n)
	DeinterleaveVectorInto(out, x, m, n)
	return out
}

// InterleaveVector is the inverse of DeinterleaveVector.
func InterleaveVector[T num.Real](x []T, m, n int) []T {
	if len(x) != m*n {
		panic("matrix: InterleaveVector length mismatch")
	}
	out := make([]T, m*n)
	InterleaveVectorInto(out, x, m, n)
	return out
}
