package gputrid

// Integration tests: whole-application flows exercised through the
// public API, mirroring the runnable examples — implicit heat stepping,
// cubic splines, ADI Poisson — plus cross-algorithm agreement across
// every module boundary in one place.

import (
	"math"
	"testing"

	"gputrid/internal/core"
	"gputrid/internal/cpu"
	"gputrid/internal/davidson"
	"gputrid/internal/matrix"
	"gputrid/internal/pcr"
	"gputrid/internal/workload"
)

// TestIntegrationHeatStepping integrates the 1-D heat equation
// implicitly for a batch of rods and compares against the analytic
// decay of the fundamental mode.
func TestIntegrationHeatStepping(t *testing.T) {
	const (
		rods, n = 8, 256
		alpha   = 0.1
		steps   = 20
		dt      = 0.001
	)
	dx := 1.0 / float64(n+1)
	lambda := alpha * dt / (dx * dx)

	u := make([][]float64, rods)
	for m := range u {
		u[m] = make([]float64, n)
		for j := 0; j < n; j++ {
			u[m][j] = math.Sin(math.Pi * float64(j+1) * dx)
		}
	}
	b := NewBatch[float64](rods, n)
	for s := 0; s < steps; s++ {
		for m := 0; m < rods; m++ {
			base := m * n
			for j := 0; j < n; j++ {
				if j > 0 {
					b.Lower[base+j] = -lambda
				}
				b.Diag[base+j] = 1 + 2*lambda
				if j < n-1 {
					b.Upper[base+j] = -lambda
				}
				b.RHS[base+j] = u[m][j]
			}
		}
		res, err := SolveBatch(b)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		checkResidual(t, b, res.X)
		for m := 0; m < rods; m++ {
			copy(u[m], res.X[m*n:(m+1)*n])
		}
	}
	decay := math.Exp(-math.Pi * math.Pi * alpha * float64(steps) * dt)
	mid := u[0][n/2]
	exact := math.Sin(math.Pi*0.5*(1+1.0/float64(n+1))) * decay
	if e := math.Abs(mid - exact); e > 5e-3 {
		t.Errorf("heat midpoint error %g (got %g, want ~%g)", e, mid, exact)
	}
}

// TestIntegrationSplineInterpolation fits a natural cubic spline
// through sin(2πx) and checks midpoint interpolation error.
func TestIntegrationSplineInterpolation(t *testing.T) {
	const knots = 129
	h := 1.0 / float64(knots-1)
	y := make([]float64, knots)
	for j := range y {
		y[j] = math.Sin(2 * math.Pi * float64(j) * h)
	}
	n := knots - 2
	b := NewBatch[float64](1, n)
	for j := 0; j < n; j++ {
		if j > 0 {
			b.Lower[j] = 1
		}
		b.Diag[j] = 4
		if j < n-1 {
			b.Upper[j] = 1
		}
		b.RHS[j] = 6 * (y[j] - 2*y[j+1] + y[j+2]) / (h * h)
	}
	res, err := SolveBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	checkResidual(t, b, res.X)
	msec := make([]float64, knots)
	copy(msec[1:knots-1], res.X)
	var worst float64
	for j := 0; j < knots-1; j++ {
		x := (float64(j) + 0.5) * h
		a := y[j]
		bb := (y[j+1]-y[j])/h - h*(2*msec[j]+msec[j+1])/6
		cc := msec[j] / 2
		dd := (msec[j+1] - msec[j]) / (6 * h)
		tt := x - float64(j)*h
		s := a + tt*(bb+tt*(cc+tt*dd))
		if e := math.Abs(s - math.Sin(2*math.Pi*x)); e > worst {
			worst = e
		}
	}
	if worst > 1e-4 {
		t.Errorf("spline midpoint error %g", worst)
	}
}

// TestIntegrationADIPoisson runs a few ADI sweeps on a small grid and
// requires monotone residual reduction.
func TestIntegrationADIPoisson(t *testing.T) {
	const nx, ny, sweeps = 48, 40, 24
	// Near-optimal fixed Peaceman-Rachford parameter: the geometric
	// mean of the extreme Laplacian eigenvalues for this grid.
	const rho = 300.0
	hx, hy := 1.0/float64(nx+1), 1.0/float64(ny+1)
	u := make([]float64, nx*ny)
	f := make([]float64, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			f[j*nx+i] = 1
		}
	}
	idx := func(i, j int) int { return j*nx + i }
	ypart := func(i, j int) float64 {
		c := u[idx(i, j)]
		var d, up float64
		if j > 0 {
			d = u[idx(i, j-1)]
		}
		if j < ny-1 {
			up = u[idx(i, j+1)]
		}
		return (d - 2*c + up) / (hy * hy)
	}
	xpart := func(i, j int) float64 {
		c := u[idx(i, j)]
		var l, r float64
		if i > 0 {
			l = u[idx(i-1, j)]
		}
		if i < nx-1 {
			r = u[idx(i+1, j)]
		}
		return (l - 2*c + r) / (hx * hx)
	}
	residual := func() float64 {
		var worst float64
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if e := math.Abs(-xpart(i, j) - ypart(i, j) - f[idx(i, j)]); e > worst {
					worst = e
				}
			}
		}
		return worst
	}
	r0 := residual()
	for s := 0; s < sweeps; s++ {
		bx := NewBatch[float64](ny, nx)
		for j := 0; j < ny; j++ {
			base := j * nx
			for i := 0; i < nx; i++ {
				if i > 0 {
					bx.Lower[base+i] = -1 / (hx * hx)
				}
				bx.Diag[base+i] = 2/(hx*hx) + rho
				if i < nx-1 {
					bx.Upper[base+i] = -1 / (hx * hx)
				}
				bx.RHS[base+i] = f[idx(i, j)] + ypart(i, j) + rho*u[idx(i, j)]
			}
		}
		res, err := SolveBatch(bx)
		if err != nil {
			t.Fatal(err)
		}
		copy(u, res.X)

		by := NewBatch[float64](nx, ny)
		for i := 0; i < nx; i++ {
			base := i * ny
			for j := 0; j < ny; j++ {
				if j > 0 {
					by.Lower[base+j] = -1 / (hy * hy)
				}
				by.Diag[base+j] = 2/(hy*hy) + rho
				if j < ny-1 {
					by.Upper[base+j] = -1 / (hy * hy)
				}
				by.RHS[base+j] = f[idx(i, j)] + xpart(i, j) + rho*u[idx(i, j)]
			}
		}
		res, err = SolveBatch(by)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				u[idx(i, j)] = res.X[i*ny+j]
			}
		}
	}
	r1 := residual()
	if r1 > r0/10 {
		t.Errorf("ADI residual only %g -> %g after %d sweeps", r0, r1, sweeps)
	}
}

// TestIntegrationAllSolversAgree pushes one batch through every solver
// family in the module and demands pairwise agreement.
func TestIntegrationAllSolversAgree(t *testing.T) {
	m, n := 6, 400
	b := workload.Batch[float64](workload.DiagDominant, m, n, 99)

	results := map[string][]float64{}

	res, err := SolveBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	results["hybrid"] = res.X

	res, err = SolveBatch(b, WithK(0))
	if err != nil {
		t.Fatal(err)
	}
	results["pthomas"] = res.X

	if x, _, err := core.SolveFused(core.Config{K: 5}, b); err != nil {
		t.Fatal(err)
	} else {
		results["fused"] = x
	}

	if x, err := cpu.SolveBatchSeq(b); err != nil {
		t.Fatal(err)
	} else {
		results["thomas-cpu"] = x
	}

	if x, _, err := davidson.Solve(davidson.Config{}, b); err != nil {
		t.Fatal(err)
	} else {
		results["davidson"] = x
	}

	perSys := make([]float64, m*n)
	for i := 0; i < m; i++ {
		copy(perSys[i*n:], pcr.SolveCR(b.System(i)))
	}
	results["cr"] = perSys

	ref := results["thomas-cpu"]
	for name, x := range results {
		if d := matrix.MaxRelDiff(x, ref); d > 1e-8 {
			t.Errorf("%s differs from thomas-cpu by %g", name, d)
		}
	}
}

// TestIntegrationFloat32EndToEnd runs a full application-style flow in
// single precision.
func TestIntegrationFloat32EndToEnd(t *testing.T) {
	b := workload.Batch[float32](workload.Heat, 32, 512, 4)
	res, err := SolveBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	checkResidual(t, b, res.X)
	if res.K != 6 {
		t.Errorf("k = %d, want 6 for M=32", res.K)
	}
}
