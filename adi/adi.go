// Package adi exposes the module's alternating-direction-implicit
// integrators (Peaceman-Rachford 2-D heat and Poisson iteration,
// Douglas-Gunn 3-D heat) built on the gputrid batch solver — the
// paper's fluid-dynamics/ADI application family (refs [4][5]).
//
//	g := adi.NewGrid2D(255, 255)
//	h := &adi.Heat2D[float64]{Grid: g, Alpha: 0.1}
//	_ = h.Step(u, nil, 1e-3) // one PR step, two tridiagonal batches
//
// The default backend is the hybrid tiled-PCR + p-Thomas solver with
// the Table III heuristic.
package adi

import (
	iadi "gputrid/internal/adi"
	"gputrid/internal/core"
	"gputrid/internal/num"
)

// Backend solves a batch of tridiagonal systems (see gputrid.SolveBatch).
// The stepper owns the batch and reuses it from step to step: the
// backend must not modify it, and must keep neither the batch nor the
// returned slice past its next call, so it may return one reused
// solution buffer (for example a Solver.SolveBatchInto dst). A stepper
// is not safe for concurrent use.
type Backend[T num.Real] = iadi.Backend[T]

// Grid2D is a uniform interior grid on the unit square.
type Grid2D = iadi.Grid2D

// Grid3D is a uniform interior grid on the unit cube.
type Grid3D = iadi.Grid3D

// Heat2D integrates u_t = α∇²u + f with Peaceman-Rachford steps.
type Heat2D[T num.Real] = iadi.Heat2D[T]

// Poisson2D solves −∇²u = f with the Wachspress-accelerated stationary
// Peaceman-Rachford iteration.
type Poisson2D[T num.Real] = iadi.Poisson2D[T]

// Heat3D integrates the 3-D heat equation with Douglas-Gunn steps.
type Heat3D[T num.Real] = iadi.Heat3D[T]

// NewGrid2D builds a grid with nx × ny interior points.
func NewGrid2D(nx, ny int) Grid2D { return iadi.NewGrid2D(nx, ny) }

// NewGrid3D builds a grid with nx × ny × nz interior points.
func NewGrid3D(nx, ny, nz int) Grid3D { return iadi.NewGrid3D(nx, ny, nz) }

// WachspressParams returns J geometrically spaced acceleration
// parameters covering the eigenvalue range [a, b].
func WachspressParams(j int, a, b float64) []float64 {
	return iadi.WachspressParams(j, a, b)
}

// DefaultBackend returns the hybrid GPU solver with automatic k.
func DefaultBackend[T num.Real]() Backend[T] {
	return iadi.GPUBackend[T](core.Config{K: core.KAuto})
}

// CPUBackend returns the sequential Thomas backend (useful for
// host-side verification).
func CPUBackend[T num.Real]() Backend[T] { return iadi.CPUBackend[T]() }
