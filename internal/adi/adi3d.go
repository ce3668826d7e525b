package adi

import (
	"fmt"

	"gputrid/internal/core"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// Grid3D is a uniform interior grid on the unit cube: nx × ny × nz
// unknowns, u = 0 on the boundary, index = (k*ny + j)*nx + i.
type Grid3D struct {
	NX, NY, NZ int
	HX, HY, HZ float64
}

// NewGrid3D builds the grid for nx × ny × nz interior points.
func NewGrid3D(nx, ny, nz int) Grid3D {
	return Grid3D{
		NX: nx, NY: ny, NZ: nz,
		HX: 1 / float64(nx+1), HY: 1 / float64(ny+1), HZ: 1 / float64(nz+1),
	}
}

// size returns the grid's point count, or an error for an empty grid.
func (g Grid3D) size() (int, error) {
	if g.NX <= 0 || g.NY <= 0 || g.NZ <= 0 {
		return 0, fmt.Errorf("adi: empty grid %dx%dx%d", g.NX, g.NY, g.NZ)
	}
	return g.NX * g.NY * g.NZ, nil
}

// Heat3D integrates u_t = alpha ∇²u with the Douglas-Gunn scheme:
// three tridiagonal sweeps per step, unconditionally stable and
// second-order in time for the homogeneous problem. Like Heat2D it
// owns its line batches and rewrites the operator only when the grid,
// Alpha or dt changes. A Heat3D is not safe for concurrent use.
type Heat3D[T num.Real] struct {
	Grid    Grid3D
	Alpha   float64
	Backend Backend[T]

	x, y, z lines[T]
	zero    []T // one zero grid row: the edge rows' missing neighbours
}

// Step advances u (length NX*NY*NZ) by dt.
func (h *Heat3D[T]) Step(u []T, dt float64) error {
	g := h.Grid
	total, err := g.size()
	if err != nil {
		return err
	}
	if len(u) != total {
		return fmt.Errorf("adi: state length %d != %d", len(u), total)
	}
	if h.Backend == nil {
		h.Backend = GPUBackend[T](core.Config{K: core.KAuto})
	}
	lx := T(h.Alpha * dt / (g.HX * g.HX))
	ly := T(h.Alpha * dt / (g.HY * g.HY))
	lz := T(h.Alpha * dt / (g.HZ * g.HZ))
	plane := g.NX * g.NY
	b1 := h.x.prepare(g.NY*g.NZ, g.NX, -lx/2, 1+lx)
	b2 := h.y.prepare(g.NX*g.NZ, g.NY, -ly/2, 1+ly)
	b3 := h.z.prepare(plane, g.NZ, -lz/2, 1+lz)
	h.zero = zeros(h.zero, g.NX)

	// Stage 1 (x-implicit):
	// (I − lx/2 Dx) v1 = [I + lx/2 Dx + ly Dy + lz Dz] u
	dgRHSExplicit(b1.RHS, u, h.zero, g, lx/2, ly, lz)
	v1, err := h.Backend(b1)
	if err != nil {
		return err
	}

	// Stage 2 (y-implicit): (I − ly/2 Dy) v2 = v1 − ly/2 Dy u. b1.RHS
	// is free again and takes the right-hand side in grid order; each
	// z-plane is the interleaved layout of its y-lines.
	dgRHSCorrect(b1.RHS, v1, u, h.zero, g, ly/2, false)
	for k := 0; k < total; k += plane {
		matrix.DeinterleaveVectorInto(b2.RHS[k:k+plane], b1.RHS[k:k+plane], g.NX, g.NY)
	}
	x2, err := h.Backend(b2)
	if err != nil {
		return err
	}
	for k := 0; k < total; k += plane {
		matrix.InterleaveVectorInto(b1.RHS[k:k+plane], x2[k:k+plane], g.NX, g.NY)
	}

	// Stage 3 (z-implicit): (I − lz/2 Dz) u' = v2 − lz/2 Dz u, with v2
	// in b1.RHS; the grid is the interleaved layout of its z-lines.
	dgRHSCorrect(b1.RHS, b1.RHS, u, h.zero, g, lz/2, true)
	matrix.DeinterleaveVectorInto(b3.RHS, b1.RHS, plane, g.NZ)
	x3, err := h.Backend(b3)
	if err != nil {
		return err
	}
	matrix.InterleaveVectorInto(u, x3, plane, g.NZ)
	return nil
}

// dgRHSExplicit writes stage 1's right-hand side
// u + hx·δx²u + ly·δy²u + lz·δz²u in grid order.
//
//tridlint:hotpath
func dgRHSExplicit[T num.Real](rhs, u, zero []T, g Grid3D, hx, ly, lz T) {
	nx, plane := g.NX, g.NX*g.NY
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			r := k*plane + j*nx
			row, out := u[r:r+nx], rhs[r:r+nx]
			yd, yu := adjacent(u, zero, r, nx, nx, j > 0, j < g.NY-1)
			zd, zu := adjacent(u, zero, r, nx, plane, k > 0, k < g.NZ-1)
			var l T
			for i, c := range row {
				var rt T
				if i+1 < nx {
					rt = row[i+1]
				}
				out[i] = c + hx*(l-2*c+rt) + ly*(yd[i]-2*c+yu[i]) + lz*(zd[i]-2*c+zu[i])
				l = c
			}
		}
	}
}

// dgRHSCorrect writes the later stages' right-hand side v − h·δ²u in
// grid order, differencing along z if alongZ is set, else along y. rhs
// may be v itself.
//
//tridlint:hotpath
func dgRHSCorrect[T num.Real](rhs, v, u, zero []T, g Grid3D, h T, alongZ bool) {
	nx, plane := g.NX, g.NX*g.NY
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			r := k*plane + j*nx
			row, vr, out := u[r:r+nx], v[r:r+nx], rhs[r:r+nx]
			stride, hasDn, hasUp := nx, j > 0, j < g.NY-1
			if alongZ {
				stride, hasDn, hasUp = plane, k > 0, k < g.NZ-1
			}
			dn, up := adjacent(u, zero, r, nx, stride, hasDn, hasUp)
			for i, c := range row {
				out[i] = vr[i] - h*(dn[i]-2*c+up[i])
			}
		}
	}
}
