package adi

import (
	"math"
	"testing"

	"gputrid/internal/core"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

func fill2D(g Grid2D, f func(x, y float64) float64) []float64 {
	u := make([]float64, g.NX*g.NY)
	for j := 0; j < g.NY; j++ {
		y := float64(j+1) * g.HY
		for i := 0; i < g.NX; i++ {
			x := float64(i+1) * g.HX
			u[g.idx(i, j)] = f(x, y)
		}
	}
	return u
}

func maxErr2D(g Grid2D, u []float64, f func(x, y float64) float64) float64 {
	var worst float64
	for j := 0; j < g.NY; j++ {
		y := float64(j+1) * g.HY
		for i := 0; i < g.NX; i++ {
			x := float64(i+1) * g.HX
			if e := math.Abs(u[g.idx(i, j)] - f(x, y)); e > worst {
				worst = e
			}
		}
	}
	return worst
}

func TestHeat2DMatchesAnalyticDecay(t *testing.T) {
	g := NewGrid2D(63, 63)
	const alpha, tEnd, steps = 0.05, 0.02, 40
	dt := tEnd / steps
	u := fill2D(g, func(x, y float64) float64 {
		return math.Sin(math.Pi*x) * math.Sin(2*math.Pi*y)
	})
	h := &Heat2D[float64]{Grid: g, Alpha: alpha, Backend: CPUBackend[float64]()}
	for s := 0; s < steps; s++ {
		if err := h.Step(u, nil, dt); err != nil {
			t.Fatal(err)
		}
	}
	decay := math.Exp(-(1 + 4) * math.Pi * math.Pi * alpha * tEnd)
	err := maxErr2D(g, u, func(x, y float64) float64 {
		return math.Sin(math.Pi*x) * math.Sin(2*math.Pi*y) * decay
	})
	if err > 5e-4 {
		t.Errorf("Heat2D error %g vs analytic decay", err)
	}
}

func TestHeat2DGPUBackendMatchesCPU(t *testing.T) {
	g := NewGrid2D(31, 47)
	u1 := fill2D(g, func(x, y float64) float64 { return x * (1 - x) * y * (1 - y) })
	u2 := append([]float64(nil), u1...)
	dt := 1e-3
	hc := &Heat2D[float64]{Grid: g, Alpha: 0.1, Backend: CPUBackend[float64]()}
	hg := &Heat2D[float64]{Grid: g, Alpha: 0.1, Backend: GPUBackend[float64](core.Config{K: core.KAuto})}
	for s := 0; s < 3; s++ {
		if err := hc.Step(u1, nil, dt); err != nil {
			t.Fatal(err)
		}
		if err := hg.Step(u2, nil, dt); err != nil {
			t.Fatal(err)
		}
	}
	var worst float64
	for i := range u1 {
		if d := math.Abs(u1[i] - u2[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-11 {
		t.Errorf("CPU and GPU ADI paths differ by %g", worst)
	}
}

func TestHeat2DWithSource(t *testing.T) {
	// Steady state of u_t = ∇²u + f with f = (5π²)·sin πx sin 2πy is
	// u* = sin πx sin 2πy; stepping long enough must converge to it.
	g := NewGrid2D(63, 63)
	f := fill2D(g, func(x, y float64) float64 {
		return 5 * math.Pi * math.Pi * math.Sin(math.Pi*x) * math.Sin(2*math.Pi*y)
	})
	u := make([]float64, g.NX*g.NY)
	h := &Heat2D[float64]{Grid: g, Alpha: 1, Backend: CPUBackend[float64]()}
	for s := 0; s < 200; s++ {
		if err := h.Step(u, f, 0.002); err != nil {
			t.Fatal(err)
		}
	}
	err := maxErr2D(g, u, func(x, y float64) float64 {
		return math.Sin(math.Pi*x) * math.Sin(2*math.Pi*y)
	})
	if err > 2e-3 {
		t.Errorf("steady-state error %g", err)
	}
}

func TestWachspressParams(t *testing.T) {
	ps := WachspressParams(5, 10, 1000)
	if len(ps) != 5 {
		t.Fatalf("got %d params", len(ps))
	}
	for i, p := range ps {
		if p < 10 || p > 1000 {
			t.Errorf("param %d = %g outside [a,b]", i, p)
		}
		if i > 0 && ps[i] >= ps[i-1] {
			t.Errorf("params not decreasing: %v", ps)
		}
	}
	if got := WachspressParams(0, 1, 2); len(got) != 1 {
		t.Error("J<1 not clamped")
	}
}

func TestPoisson2DWachspressConvergence(t *testing.T) {
	g := NewGrid2D(63, 63)
	f := fill2D(g, func(x, y float64) float64 {
		return (9 + 4) * math.Pi * math.Pi * math.Sin(3*math.Pi*x) * math.Sin(2*math.Pi*y)
	})
	u := make([]float64, g.NX*g.NY)
	p := &Poisson2D[float64]{Grid: g, Backend: CPUBackend[float64]()}
	r0 := p.Residual(u, f)
	res, err := p.Iterate(u, f, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res > r0/1e3 {
		t.Errorf("Wachspress cycles reduced residual only %g -> %g", r0, res)
	}
	solErr := maxErr2D(g, u, func(x, y float64) float64 {
		return math.Sin(3*math.Pi*x) * math.Sin(2*math.Pi*y)
	})
	if solErr > 5e-3 {
		t.Errorf("Poisson solution error %g", solErr)
	}
}

func TestPoisson2DBadShapes(t *testing.T) {
	p := &Poisson2D[float64]{Grid: NewGrid2D(4, 4)}
	if _, err := p.Iterate(make([]float64, 3), make([]float64, 16), nil, 1); err == nil {
		t.Error("short state accepted")
	}
	h := &Heat2D[float64]{Grid: NewGrid2D(4, 4), Alpha: 1}
	if err := h.Step(make([]float64, 3), nil, 0.1); err == nil {
		t.Error("short state accepted")
	}
	h3 := &Heat3D[float64]{Grid: NewGrid3D(4, 4, 4), Alpha: 1}
	if err := h3.Step(make([]float64, 3), 0.1); err == nil {
		t.Error("short 3D state accepted")
	}
}

func TestHeat3DMatchesAnalyticDecay(t *testing.T) {
	g := NewGrid3D(23, 23, 23)
	const alpha, tEnd, steps = 0.05, 0.01, 20
	dt := tEnd / steps
	u := make([]float64, g.NX*g.NY*g.NZ)
	for k := 0; k < g.NZ; k++ {
		z := float64(k+1) * g.HZ
		for j := 0; j < g.NY; j++ {
			y := float64(j+1) * g.HY
			for i := 0; i < g.NX; i++ {
				x := float64(i+1) * g.HX
				u[g.idx(i, j, k)] = math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
			}
		}
	}
	h := &Heat3D[float64]{Grid: g, Alpha: alpha, Backend: CPUBackend[float64]()}
	for s := 0; s < steps; s++ {
		if err := h.Step(u, dt); err != nil {
			t.Fatal(err)
		}
	}
	decay := math.Exp(-3 * math.Pi * math.Pi * alpha * tEnd)
	var worst float64
	for k := 0; k < g.NZ; k++ {
		z := float64(k+1) * g.HZ
		for j := 0; j < g.NY; j++ {
			y := float64(j+1) * g.HY
			for i := 0; i < g.NX; i++ {
				x := float64(i+1) * g.HX
				exact := math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z) * decay
				if e := math.Abs(u[g.idx(i, j, k)] - exact); e > worst {
					worst = e
				}
			}
		}
	}
	if worst > 2e-3 {
		t.Errorf("Heat3D error %g vs analytic decay", worst)
	}
}

func TestHeat3DGPUBackend(t *testing.T) {
	g := NewGrid3D(15, 17, 13)
	u := make([]float64, g.NX*g.NY*g.NZ)
	for i := range u {
		u[i] = float64(i%7) / 7
	}
	ref := append([]float64(nil), u...)
	hg := &Heat3D[float64]{Grid: g, Alpha: 0.2, Backend: GPUBackend[float64](core.Config{K: core.KAuto})}
	hc := &Heat3D[float64]{Grid: g, Alpha: 0.2, Backend: CPUBackend[float64]()}
	if err := hg.Step(u, 1e-3); err != nil {
		t.Fatal(err)
	}
	if err := hc.Step(ref, 1e-3); err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range u {
		if d := math.Abs(u[i] - ref[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-12 {
		t.Errorf("GPU vs CPU 3-D step differ by %g", worst)
	}
}

// ---- reference steppers ----------------------------------------------
//
// The closure-built steppers the allocation-free ones replaced, kept
// as the bitwise oracle: every step builds fresh batches element by
// element and scatters the solutions back index by index.

func (g Grid3D) idx(i, j, k int) int { return (k*g.NY+j)*g.NX + i }

// lineBatchX builds the x-direction implicit batch: one system per row
// j, solving (diag + offd·Dx) u_row = rhs.
func lineBatchX[T num.Real](g Grid2D, offd, diag T, rhs func(i, j int) T) *matrix.Batch[T] {
	b := matrix.NewBatch[T](g.NY, g.NX)
	for j := 0; j < g.NY; j++ {
		base := j * g.NX
		for i := 0; i < g.NX; i++ {
			if i > 0 {
				b.Lower[base+i] = offd
			}
			b.Diag[base+i] = diag
			if i < g.NX-1 {
				b.Upper[base+i] = offd
			}
			b.RHS[base+i] = rhs(i, j)
		}
	}
	return b
}

// lineBatchY builds the y-direction implicit batch: one system per
// column i.
func lineBatchY[T num.Real](g Grid2D, offd, diag T, rhs func(i, j int) T) *matrix.Batch[T] {
	b := matrix.NewBatch[T](g.NX, g.NY)
	for i := 0; i < g.NX; i++ {
		base := i * g.NY
		for j := 0; j < g.NY; j++ {
			if j > 0 {
				b.Lower[base+j] = offd
			}
			b.Diag[base+j] = diag
			if j < g.NY-1 {
				b.Upper[base+j] = offd
			}
			b.RHS[base+j] = rhs(i, j)
		}
	}
	return b
}

// scatterX copies row-major solutions back into u.
func scatterX[T num.Real](g Grid2D, u, x []T) {
	copy(u, x) // row-major batch is already the grid layout
}

// scatterY copies column-major solutions back into u.
func scatterY[T num.Real](g Grid2D, u, x []T) {
	for i := 0; i < g.NX; i++ {
		for j := 0; j < g.NY; j++ {
			u[g.idx(i, j)] = x[i*g.NY+j]
		}
	}
}

func refHeat2DStep[T num.Real](g Grid2D, alpha float64, be Backend[T], u, f []T, dt float64) error {
	lx := T(alpha * dt / (2 * g.HX * g.HX))
	ly := T(alpha * dt / (2 * g.HY * g.HY))
	src := func(i, j int) T {
		if f == nil {
			return 0
		}
		return T(dt/2) * f[g.idx(i, j)]
	}

	// Half-step 1: implicit in x, explicit in y.
	bx := lineBatchX(g, -lx, 1+2*lx, func(i, j int) T {
		return u[g.idx(i, j)] + ly*dyy(g, u, i, j) + src(i, j)
	})
	xs, err := be(bx)
	if err != nil {
		return err
	}
	half := make([]T, len(u))
	copy(half, xs)

	// Half-step 2: implicit in y, explicit in x on the intermediate.
	by := lineBatchY(g, -ly, 1+2*ly, func(i, j int) T {
		return half[g.idx(i, j)] + lx*dxx(g, half, i, j) + src(i, j)
	})
	ys, err := be(by)
	if err != nil {
		return err
	}
	scatterY(g, u, ys)
	return nil
}

func refPoissonIterate[T num.Real](g Grid2D, be Backend[T], u, f []T, params []float64, cycles int) (float64, error) {
	ax := T(1 / (g.HX * g.HX))
	ay := T(1 / (g.HY * g.HY))
	for c := 0; c < cycles; c++ {
		for _, rhoF := range params {
			rho := T(rhoF)
			bx := lineBatchX(g, -ax, 2*ax+rho, func(i, j int) T {
				return f[g.idx(i, j)] + ay*dyy(g, u, i, j) + rho*u[g.idx(i, j)]
			})
			xs, err := be(bx)
			if err != nil {
				return 0, err
			}
			scatterX(g, u, xs)
			by := lineBatchY(g, -ay, 2*ay+rho, func(i, j int) T {
				return f[g.idx(i, j)] + ax*dxx(g, u, i, j) + rho*u[g.idx(i, j)]
			})
			ys, err := be(by)
			if err != nil {
				return 0, err
			}
			scatterY(g, u, ys)
		}
	}
	return (&Poisson2D[T]{Grid: g}).Residual(u, f), nil
}

// second differences along each axis (undivided).
func dxx3[T num.Real](g Grid3D, u []T, i, j, k int) T {
	c := u[g.idx(i, j, k)]
	var l, r T
	if i > 0 {
		l = u[g.idx(i-1, j, k)]
	}
	if i < g.NX-1 {
		r = u[g.idx(i+1, j, k)]
	}
	return l - 2*c + r
}

func dyy3[T num.Real](g Grid3D, u []T, i, j, k int) T {
	c := u[g.idx(i, j, k)]
	var l, r T
	if j > 0 {
		l = u[g.idx(i, j-1, k)]
	}
	if j < g.NY-1 {
		r = u[g.idx(i, j+1, k)]
	}
	return l - 2*c + r
}

func dzz3[T num.Real](g Grid3D, u []T, i, j, k int) T {
	c := u[g.idx(i, j, k)]
	var l, r T
	if k > 0 {
		l = u[g.idx(i, j, k-1)]
	}
	if k < g.NZ-1 {
		r = u[g.idx(i, j, k+1)]
	}
	return l - 2*c + r
}

func refHeat3DStep[T num.Real](g Grid3D, alpha float64, be Backend[T], u []T, dt float64) error {
	total := g.NX * g.NY * g.NZ
	lx := T(alpha * dt / (g.HX * g.HX))
	ly := T(alpha * dt / (g.HY * g.HY))
	lz := T(alpha * dt / (g.HZ * g.HZ))

	b1 := matrix.NewBatch[T](g.NY*g.NZ, g.NX)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			base := (k*g.NY + j) * g.NX
			for i := 0; i < g.NX; i++ {
				if i > 0 {
					b1.Lower[base+i] = -lx / 2
				}
				b1.Diag[base+i] = 1 + lx
				if i < g.NX-1 {
					b1.Upper[base+i] = -lx / 2
				}
				b1.RHS[base+i] = u[g.idx(i, j, k)] +
					lx/2*dxx3(g, u, i, j, k) +
					ly*dyy3(g, u, i, j, k) +
					lz*dzz3(g, u, i, j, k)
			}
		}
	}
	v1, err := be(b1)
	if err != nil {
		return err
	}

	b2 := matrix.NewBatch[T](g.NX*g.NZ, g.NY)
	for k := 0; k < g.NZ; k++ {
		for i := 0; i < g.NX; i++ {
			base := (k*g.NX + i) * g.NY
			for j := 0; j < g.NY; j++ {
				if j > 0 {
					b2.Lower[base+j] = -ly / 2
				}
				b2.Diag[base+j] = 1 + ly
				if j < g.NY-1 {
					b2.Upper[base+j] = -ly / 2
				}
				b2.RHS[base+j] = v1[g.idx(i, j, k)] - ly/2*dyy3(g, u, i, j, k)
			}
		}
	}
	x2, err := be(b2)
	if err != nil {
		return err
	}
	v2 := make([]T, total)
	for k := 0; k < g.NZ; k++ {
		for i := 0; i < g.NX; i++ {
			base := (k*g.NX + i) * g.NY
			for j := 0; j < g.NY; j++ {
				v2[g.idx(i, j, k)] = x2[base+j]
			}
		}
	}

	b3 := matrix.NewBatch[T](g.NX*g.NY, g.NZ)
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			base := (j*g.NX + i) * g.NZ
			for k := 0; k < g.NZ; k++ {
				if k > 0 {
					b3.Lower[base+k] = -lz / 2
				}
				b3.Diag[base+k] = 1 + lz
				if k < g.NZ-1 {
					b3.Upper[base+k] = -lz / 2
				}
				b3.RHS[base+k] = v2[g.idx(i, j, k)] - lz/2*dzz3(g, u, i, j, k)
			}
		}
	}
	x3, err := be(b3)
	if err != nil {
		return err
	}
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			base := (j*g.NX + i) * g.NZ
			for k := 0; k < g.NZ; k++ {
				u[g.idx(i, j, k)] = x3[base+k]
			}
		}
	}
	return nil
}
