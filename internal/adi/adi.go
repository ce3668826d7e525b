// Package adi implements alternating-direction-implicit integrators —
// the fluid-dynamics workload family the paper targets (Sakharnykh,
// refs [4][5]: "Efficient tridiagonal solvers for ADI methods"). Every
// implicit half-sweep solves one tridiagonal system per grid line, so a
// 2-D or 3-D step is a perfect batch for the hybrid solver.
//
// Provided schemes (uniform grids, homogeneous Dirichlet boundaries):
//
//   - Heat2D: Peaceman-Rachford for u_t = α∇²u + f, second-order in
//     time and unconditionally stable;
//   - Poisson2D: the stationary PR iteration for −∇²u = f, with
//     Wachspress-cycled acceleration parameters;
//   - Heat3D: Douglas-Gunn for the 3-D heat equation (three tridiagonal
//     sweeps per step).
//
// The tridiagonal backend is pluggable so tests can swap the simulated
// GPU for the plain CPU path.
package adi

import (
	"fmt"
	"math"

	"gputrid/internal/core"
	"gputrid/internal/cpu"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// Backend solves every system of a batch, returning the solutions
// contiguously (the gputrid.SolveBatch contract). The stepper owns the
// batch and reuses it from step to step: the backend must not modify
// it, and must keep neither the batch nor the returned slice past its
// next call, so one reused solution buffer is a valid return value.
type Backend[T num.Real] func(*matrix.Batch[T]) ([]T, error)

// GPUBackend returns a backend running the hybrid solver with the
// given configuration.
func GPUBackend[T num.Real](cfg core.Config) Backend[T] {
	return func(b *matrix.Batch[T]) ([]T, error) {
		x, _, err := core.Solve(cfg, b)
		return x, err
	}
}

// CPUBackend returns the sequential Thomas backend.
func CPUBackend[T num.Real]() Backend[T] {
	return cpu.SolveBatchSeq[T]
}

// Grid2D is a uniform interior grid on the unit square: nx × ny
// unknowns, u = 0 on the boundary, index = j*nx + i.
type Grid2D struct {
	NX, NY int
	HX, HY float64
}

// NewGrid2D builds the grid for nx × ny interior points.
func NewGrid2D(nx, ny int) Grid2D {
	return Grid2D{NX: nx, NY: ny, HX: 1 / float64(nx+1), HY: 1 / float64(ny+1)}
}

func (g Grid2D) idx(i, j int) int { return j*g.NX + i }

// size returns the grid's point count, or an error for an empty grid.
func (g Grid2D) size() (int, error) {
	if g.NX <= 0 || g.NY <= 0 {
		return 0, fmt.Errorf("adi: empty grid %dx%d", g.NX, g.NY)
	}
	return g.NX * g.NY, nil
}

// dxx returns the undivided second difference in x at (i, j).
func dxx[T num.Real](g Grid2D, u []T, i, j int) T {
	c := u[g.idx(i, j)]
	var l, r T
	if i > 0 {
		l = u[g.idx(i-1, j)]
	}
	if i < g.NX-1 {
		r = u[g.idx(i+1, j)]
	}
	return l - 2*c + r
}

func dyy[T num.Real](g Grid2D, u []T, i, j int) T {
	c := u[g.idx(i, j)]
	var d, up T
	if j > 0 {
		d = u[g.idx(i, j-1)]
	}
	if j < g.NY-1 {
		up = u[g.idx(i, j+1)]
	}
	return d - 2*c + up
}

// lines is one sweep direction's line batch, owned by a stepper and
// reused across steps. Every system carries the constant operator
// (offd, diag, offd), with the end rows' outer off-diagonals zero.
type lines[T num.Real] struct {
	b          *matrix.Batch[T]
	offd, diag T
}

// prepare returns the m×n batch with the operator (offd, diag, offd).
// It allocates only when the shape changes and rewrites a diagonal
// only when its bit pattern changes, so a warm step touches just the
// RHS.
func (l *lines[T]) prepare(m, n int, offd, diag T) *matrix.Batch[T] {
	fresh := l.b == nil || l.b.M != m || l.b.N != n
	if fresh {
		l.b = matrix.NewBatch[T](m, n)
	}
	if fresh || !sameBits(l.offd, offd) {
		for s := 0; s < m*n; s += n {
			fill(l.b.Lower[s+1:s+n], offd)
			fill(l.b.Upper[s:s+n-1], offd)
		}
		l.offd = offd
	}
	if fresh || !sameBits(l.diag, diag) {
		fill(l.b.Diag, diag)
		l.diag = diag
	}
	return l.b
}

// sameBits compares bit patterns, so a sign-of-zero change still
// rewrites the operator.
func sameBits[T num.Real](a, b T) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

func fill[T num.Real](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// zeros returns buf if it already holds n elements (it is never
// written, so it stays zero), else a fresh zero slice.
func zeros[T num.Real](buf []T, n int) []T {
	if len(buf) != n {
		return make([]T, n)
	}
	return buf
}

// adjacent returns the rows of length n a stride before and after the
// row starting at r in u. A neighbour outside the grid (hasDn or hasUp
// false) is the zero row: missing neighbours read as zero.
//
//tridlint:hotpath
func adjacent[T num.Real](u, zero []T, r, n, stride int, hasDn, hasUp bool) (dn, up []T) {
	dn, up = zero, zero
	if hasDn {
		dn = u[r-stride : r-stride+n]
	}
	if hasUp {
		up = u[r+stride : r+stride+n]
	}
	return dn, up
}

// rhsAlongY writes a + k·δy²u + s·g row by row: the right-hand side
// of an x-sweep, explicit in y. When g is nil the last term is a
// literal 0, still added because it turns a −0 into +0.
//
//tridlint:hotpath
func rhsAlongY[T num.Real](rhs, a, u, g, zero []T, nx int, k, s T) {
	ny := len(u) / nx
	for j := 0; j < ny; j++ {
		r := j * nx
		row, ar, out := u[r:r+nx], a[r:r+nx], rhs[r:r+nx]
		dn, up := adjacent(u, zero, r, nx, nx, j > 0, j < ny-1)
		for i, c := range row {
			var src T
			if g != nil {
				src = s * g[r+i]
			}
			out[i] = ar[i] + k*(dn[i]-2*c+up[i]) + src
		}
	}
}

// rhsAlongX writes a + k·δx²u + s·g in grid order: the right-hand side
// of a y-sweep, explicit in x (see rhsAlongY).
//
//tridlint:hotpath
func rhsAlongX[T num.Real](rhs, a, u, g []T, nx int, k, s T) {
	for r := 0; r < len(u); r += nx {
		row, ar, out := u[r:r+nx], a[r:r+nx], rhs[r:r+nx]
		var l T
		for i, c := range row {
			var rt, src T
			if i+1 < nx {
				rt = row[i+1]
			}
			if g != nil {
				src = s * g[r+i]
			}
			out[i] = ar[i] + k*(l-2*c+rt) + src
			l = c
		}
	}
}

// Heat2D integrates u_t = alpha ∇²u + f with Peaceman-Rachford steps.
// It owns its line batches: the first step allocates them, later steps
// rewrite the operator only when the grid, Alpha or dt changes, and
// otherwise write just the right-hand sides. A Heat2D is not safe for
// concurrent use.
type Heat2D[T num.Real] struct {
	Grid    Grid2D
	Alpha   float64
	Backend Backend[T]

	x, y lines[T]
	zero []T // one zero grid row: the edge rows' missing neighbours
}

// Step advances u (length NX*NY) by dt; f may be nil for the
// homogeneous equation.
func (h *Heat2D[T]) Step(u, f []T, dt float64) error {
	g := h.Grid
	n, err := g.size()
	if err != nil {
		return err
	}
	if len(u) != n {
		return fmt.Errorf("adi: state length %d != %d", len(u), n)
	}
	if f != nil && len(f) != n {
		return fmt.Errorf("adi: source length %d != %d", len(f), n)
	}
	if h.Backend == nil {
		h.Backend = GPUBackend[T](core.Config{K: core.KAuto})
	}
	lx := T(h.Alpha * dt / (2 * g.HX * g.HX))
	ly := T(h.Alpha * dt / (2 * g.HY * g.HY))
	bx := h.x.prepare(g.NY, g.NX, -lx, 1+2*lx)
	by := h.y.prepare(g.NX, g.NY, -ly, 1+2*ly)
	h.zero = zeros(h.zero, g.NX)

	// Half-step 1: implicit in x, explicit in y.
	rhsAlongY(bx.RHS, u, u, f, h.zero, g.NX, ly, T(dt/2))
	xs, err := h.Backend(bx)
	if err != nil {
		return err
	}

	// Half-step 2: implicit in y, explicit in x on the intermediate.
	// bx.RHS is free once the x-sweep is solved, so it takes the
	// right-hand side in grid order. A row-major grid is the
	// interleaved layout of its columns, so deinterleaving it gives the
	// y-lines contiguously, and interleaving their solutions is the
	// grid again.
	rhsAlongX(bx.RHS, xs, xs, f, g.NX, lx, T(dt/2))
	matrix.DeinterleaveVectorInto(by.RHS, bx.RHS, g.NX, g.NY)
	ys, err := h.Backend(by)
	if err != nil {
		return err
	}
	matrix.InterleaveVectorInto(u, ys, g.NX, g.NY)
	return nil
}

// Poisson2D solves −∇²u = f with the stationary Peaceman-Rachford
// iteration. Like Heat2D it owns its line batches; only the diagonal
// is rewritten when the acceleration parameter changes. A Poisson2D is
// not safe for concurrent use.
type Poisson2D[T num.Real] struct {
	Grid    Grid2D
	Backend Backend[T]

	x, y lines[T]
	zero []T
}

// WachspressParams returns J acceleration parameters geometrically
// spaced across the Laplacian's eigenvalue range [a, b] — the classical
// optimal cycling for the PR iteration.
func WachspressParams(j int, a, b float64) []float64 {
	if j < 1 {
		j = 1
	}
	out := make([]float64, j)
	for i := 0; i < j; i++ {
		out[i] = b * math.Pow(a/b, (2*float64(i)+1)/(2*float64(j)))
	}
	return out
}

// DefaultParams returns a Wachspress cycle sized for the grid.
func (p *Poisson2D[T]) DefaultParams() []float64 {
	g := p.Grid
	a := 2 * math.Pi * math.Pi // ~ smallest eigenvalue of -∇² on the unit square
	b := 4/(g.HX*g.HX) + 4/(g.HY*g.HY)
	j := int(math.Ceil(math.Log2(b/a) / 2))
	if j < 3 {
		j = 3
	}
	return WachspressParams(j, a, b)
}

// Iterate runs `cycles` sweeps through the parameter list, updating u
// in place, and returns the final max-norm residual of −∇²u = f.
func (p *Poisson2D[T]) Iterate(u, f []T, params []float64, cycles int) (float64, error) {
	g := p.Grid
	n, err := g.size()
	if err != nil {
		return 0, err
	}
	if len(u) != n || len(f) != n {
		return 0, fmt.Errorf("adi: state/f length mismatch")
	}
	if p.Backend == nil {
		p.Backend = GPUBackend[T](core.Config{K: core.KAuto})
	}
	if len(params) == 0 {
		params = p.DefaultParams()
	}
	ax := T(1 / (g.HX * g.HX))
	ay := T(1 / (g.HY * g.HY))
	p.zero = zeros(p.zero, g.NX)
	for c := 0; c < cycles; c++ {
		for _, rhoF := range params {
			rho := T(rhoF)
			// x half-sweep: (rho + Ax) u' = f - Ay u + rho u, where
			// Ax = -dxx/hx², Ay = -dyy/hy².
			bx := p.x.prepare(g.NY, g.NX, -ax, 2*ax+rho)
			rhsAlongY(bx.RHS, f, u, u, p.zero, g.NX, ay, rho)
			xs, err := p.Backend(bx)
			if err != nil {
				return 0, err
			}
			copy(u, xs) // the x-lines are the grid's rows
			// y half-sweep, built in grid order in bx.RHS as in
			// Heat2D.Step.
			by := p.y.prepare(g.NX, g.NY, -ay, 2*ay+rho)
			rhsAlongX(bx.RHS, f, u, u, g.NX, ax, rho)
			matrix.DeinterleaveVectorInto(by.RHS, bx.RHS, g.NX, g.NY)
			ys, err := p.Backend(by)
			if err != nil {
				return 0, err
			}
			matrix.InterleaveVectorInto(u, ys, g.NX, g.NY)
		}
	}
	return p.Residual(u, f), nil
}

// Residual returns max |f + ∇²u| over the grid.
func (p *Poisson2D[T]) Residual(u, f []T) float64 {
	g := p.Grid
	var worst float64
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			r := float64(f[g.idx(i, j)]) +
				float64(dxx(g, u, i, j))/(g.HX*g.HX) +
				float64(dyy(g, u, i, j))/(g.HY*g.HY)
			if a := math.Abs(r); a > worst {
				worst = a
			}
		}
	}
	return worst
}
