package adi

import (
	"math"
	"math/rand/v2"
	"testing"

	"gputrid/internal/core"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// reusedDst returns a backend over one warm core.Pipeline per batch
// shape that, like the benchmark's, returns the same dst slice from
// every call.
func reusedDst[T num.Real](t testing.TB) Backend[T] {
	pipes := map[[2]int]*core.Pipeline[T]{}
	t.Cleanup(func() {
		for _, p := range pipes {
			p.Close()
		}
	})
	var dst []T
	return func(b *matrix.Batch[T]) ([]T, error) {
		p := pipes[[2]int{b.M, b.N}]
		if p == nil {
			var err error
			if p, err = core.NewPipeline[T](core.Config{K: core.KAuto}, b.M, b.N); err != nil {
				return nil, err
			}
			pipes[[2]int{b.M, b.N}] = p
		}
		if cap(dst) < b.M*b.N {
			dst = make([]T, b.M*b.N)
		}
		dst = dst[:b.M*b.N]
		return dst, p.SolveInto(dst, b)
	}
}

// field returns n seeded values in [-1, 1), with some exact zeros of
// both signs.
func field[T num.Real](n int, seed uint64) []T {
	r := rand.New(rand.NewPCG(seed, 7))
	u := make([]T, n)
	for i := range u {
		switch r.IntN(8) {
		case 0:
			u[i] = 0
		case 1:
			u[i] = T(math.Copysign(0, -1))
		default:
			u[i] = T(2*r.Float64() - 1)
		}
	}
	return u
}

// negZeros returns n negative zeros.
func negZeros[T num.Real](n int) []T {
	u := make([]T, n)
	for i := range u {
		u[i] = T(math.Copysign(0, -1))
	}
	return u
}

func requireSameBits[T num.Real](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if g, w := math.Float64bits(float64(got[i])), math.Float64bits(float64(want[i])); g != w {
			t.Fatalf("%s: element %d is %v (bits %x), reference %v (bits %x)", what, i, got[i], g, want[i], w)
		}
	}
}

// capture wraps be so that every batch it is handed is copied into
// *log before the solve.
func capture[T num.Real](be Backend[T], log *[]*matrix.Batch[T]) Backend[T] {
	return func(b *matrix.Batch[T]) ([]T, error) {
		*log = append(*log, b.Clone())
		return be(b)
	}
}

// requireSameBatches compares two captured batch sequences bit for bit
// and empties both.
func requireSameBatches[T num.Real](t *testing.T, what string, got, want *[]*matrix.Batch[T]) {
	t.Helper()
	if len(*got) != len(*want) {
		t.Fatalf("%s: %d batches, reference %d", what, len(*got), len(*want))
	}
	for i, g := range *got {
		w := (*want)[i]
		if g.M != w.M || g.N != w.N {
			t.Fatalf("%s: batch %d is %dx%d, reference %dx%d", what, i, g.M, g.N, w.M, w.N)
		}
		requireSameBits(t, what+" Lower", g.Lower, w.Lower)
		requireSameBits(t, what+" Diag", g.Diag, w.Diag)
		requireSameBits(t, what+" Upper", g.Upper, w.Upper)
		requireSameBits(t, what+" RHS", g.RHS, w.RHS)
	}
	*got, *want = (*got)[:0], (*want)[:0]
}

func testBackends[T num.Real]() map[string]func(testing.TB) Backend[T] {
	return map[string]func(testing.TB) Backend[T]{
		"cpu":        func(testing.TB) Backend[T] { return CPUBackend[T]() },
		"reused-dst": reusedDst[T],
	}
}

// TestSteppersBitwiseMatchReference steps each stepper beside the
// closure-built reference and requires every bit of every batch handed
// to the backend, and of every output, to agree. The run changes dt,
// Alpha (through a signed zero too), the grid spacing and the grid
// shape between steps, so an operator left stale from an earlier step
// shows.
func TestSteppersBitwiseMatchReference(t *testing.T) {
	t.Run("float64", bitwiseSteppers[float64])
	t.Run("float32", bitwiseSteppers[float32])
}

func bitwiseSteppers[T num.Real](t *testing.T) {
	shapes2 := [][2]int{{1, 9}, {9, 1}, {7, 10}, {192, 192}}
	shapes3 := [][3]int{{1, 6, 5}, {6, 1, 5}, {6, 5, 1}, {7, 10, 5}, {192, 192, 2}}
	for name, mk := range testBackends[T]() {
		t.Run(name, func(t *testing.T) {
			be := mk(t)
			for _, s := range shapes2 {
				heat2DAgainstReference(t, be, s[0], s[1])
				poissonAgainstReference(t, be, s[0], s[1])
			}
			for _, s := range shapes3 {
				heat3DAgainstReference(t, be, s[0], s[1], s[2])
			}
		})
	}
}

func heat2DAgainstReference[T num.Real](t *testing.T, be Backend[T], nx, ny int) {
	var got, want []*matrix.Batch[T]
	g := NewGrid2D(nx, ny)
	h := &Heat2D[T]{Grid: g, Alpha: 1, Backend: capture(be, &got)}
	u := field[T](nx*ny, 1)
	f := field[T](nx*ny, 2)
	ref := append([]T(nil), u...)
	step := func(what string, f []T, dt float64) {
		t.Helper()
		if err := h.Step(u, f, dt); err != nil {
			t.Fatalf("Heat2D %dx%d %s: %v", nx, ny, what, err)
		}
		if err := refHeat2DStep(h.Grid, h.Alpha, capture(be, &want), ref, f, dt); err != nil {
			t.Fatalf("reference %s: %v", what, err)
		}
		requireSameBatches(t, "Heat2D "+what, &got, &want)
		requireSameBits(t, "Heat2D "+what, u, ref)
	}
	step("f nil", nil, 1e-3)
	step("f nil again", nil, 1e-3)
	step("with f", f, 1e-3)
	step("dt changed", f, 4e-4)
	h.Alpha = 0.3
	step("Alpha changed", f, 4e-4)
	h.Grid.HX *= 1.5
	step("spacing changed", nil, 4e-4)
	h.Alpha = 0
	step("Alpha zero", f, 4e-4)
	h.Alpha = math.Copysign(0, -1)
	step("Alpha negative zero", f, 4e-4)

	g = NewGrid2D(ny+1, nx)
	h.Grid = g
	u = field[T](g.NX*g.NY, 3)
	ref = append(ref[:0], u...)
	step("shape changed", field[T](g.NX*g.NY, 4), 4e-4)
	// A negative Alpha and an all −0 field exercise the literal +0 that
	// the source term adds when f is nil.
	h.Alpha = -0.05
	u = negZeros[T](g.NX * g.NY)
	ref = append(ref[:0], u...)
	step("signed zeros", nil, 1e-3)
}

func poissonAgainstReference[T num.Real](t *testing.T, be Backend[T], nx, ny int) {
	var got, want []*matrix.Batch[T]
	g := NewGrid2D(nx, ny)
	p := &Poisson2D[T]{Grid: g, Backend: capture(be, &got)}
	u := field[T](nx*ny, 5)
	f := field[T](nx*ny, 6)
	ref := append([]T(nil), u...)
	iterate := func(what string, params []float64, cycles int) {
		t.Helper()
		res, err := p.Iterate(u, f, params, cycles)
		if err != nil {
			t.Fatalf("Poisson2D %dx%d %s: %v", nx, ny, what, err)
		}
		wantRes, err := refPoissonIterate(p.Grid, capture(be, &want), ref, f, params, cycles)
		if err != nil {
			t.Fatalf("reference %s: %v", what, err)
		}
		requireSameBatches(t, "Poisson2D "+what, &got, &want)
		requireSameBits(t, "Poisson2D "+what, u, ref)
		if math.Float64bits(res) != math.Float64bits(wantRes) {
			t.Fatalf("Poisson2D %s: residual %v, reference %v", what, res, wantRes)
		}
	}
	iterate("default params", p.DefaultParams(), 1)
	iterate("explicit params", []float64{40, 400, 40}, 2)
	p.Grid.HY *= 0.75
	iterate("spacing changed", []float64{40, 4000}, 1)
	p.Grid = NewGrid2D(ny+1, nx)
	u = field[T](p.Grid.NX*p.Grid.NY, 7)
	f = field[T](len(u), 8)
	ref = append(ref[:0], u...)
	iterate("shape changed", []float64{40, 400}, 1)
}

func heat3DAgainstReference[T num.Real](t *testing.T, be Backend[T], nx, ny, nz int) {
	var got, want []*matrix.Batch[T]
	g := NewGrid3D(nx, ny, nz)
	h := &Heat3D[T]{Grid: g, Alpha: 1, Backend: capture(be, &got)}
	u := field[T](nx*ny*nz, 9)
	ref := append([]T(nil), u...)
	step := func(what string, dt float64) {
		t.Helper()
		if err := h.Step(u, dt); err != nil {
			t.Fatalf("Heat3D %dx%dx%d %s: %v", nx, ny, nz, what, err)
		}
		if err := refHeat3DStep(h.Grid, h.Alpha, capture(be, &want), ref, dt); err != nil {
			t.Fatalf("reference %s: %v", what, err)
		}
		requireSameBatches(t, "Heat3D "+what, &got, &want)
		requireSameBits(t, "Heat3D "+what, u, ref)
	}
	step("first", 1e-3)
	step("second", 1e-3)
	step("dt changed", 4e-4)
	h.Alpha = 0.3
	step("Alpha changed", 4e-4)
	h.Grid.HZ *= 1.5
	step("spacing changed", 4e-4)
	h.Alpha = 0
	step("Alpha zero", 4e-4)
	h.Alpha = math.Copysign(0, -1)
	step("Alpha negative zero", 4e-4)
	h.Grid = NewGrid3D(nz, nx, ny)
	u = field[T](len(u), 10)
	ref = append(ref[:0], u...)
	step("shape changed", 4e-4)
}

// TestHeat2DShortSourceIsAnError pins that a source term shorter than
// the grid is rejected instead of indexing past its end.
func TestHeat2DShortSourceIsAnError(t *testing.T) {
	g := NewGrid2D(4, 4)
	h := &Heat2D[float64]{Grid: g, Alpha: 1, Backend: CPUBackend[float64]()}
	if err := h.Step(make([]float64, 16), make([]float64, 10), 0.1); err == nil {
		t.Error("short f accepted")
	}
}

// TestSteppersRejectEmptyGrids pins that every stepper returns an error
// for a grid with a zero or negative extent instead of panicking while
// sizing its batches.
func TestSteppersRejectEmptyGrids(t *testing.T) {
	cpu := CPUBackend[float64]()
	cases := []struct {
		name string
		run  func() error
	}{
		{"Heat2D 0x8", func() error {
			return (&Heat2D[float64]{Grid: NewGrid2D(0, 8), Alpha: 1, Backend: cpu}).Step(nil, nil, 0.1)
		}},
		{"Heat2D 8x0", func() error {
			return (&Heat2D[float64]{Grid: NewGrid2D(8, 0), Alpha: 1, Backend: cpu}).Step(nil, nil, 0.1)
		}},
		{"Heat2D -1x-1", func() error {
			return (&Heat2D[float64]{Grid: NewGrid2D(-1, -1), Alpha: 1, Backend: cpu}).Step(make([]float64, 1), nil, 0.1)
		}},
		{"Poisson2D 8x0", func() error {
			_, err := (&Poisson2D[float64]{Grid: NewGrid2D(8, 0), Backend: cpu}).Iterate(nil, nil, []float64{1}, 1)
			return err
		}},
		{"Poisson2D 0x8", func() error {
			_, err := (&Poisson2D[float64]{Grid: NewGrid2D(0, 8), Backend: cpu}).Iterate(nil, nil, nil, 1)
			return err
		}},
		{"Heat3D 4x4x0", func() error {
			return (&Heat3D[float64]{Grid: NewGrid3D(4, 4, 0), Alpha: 1, Backend: cpu}).Step(nil, 0.1)
		}},
		{"Heat3D 0x4x4", func() error {
			return (&Heat3D[float64]{Grid: NewGrid3D(0, 4, 4), Alpha: 1, Backend: cpu}).Step(nil, 0.1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); err == nil {
				t.Error("empty grid accepted")
			}
		})
	}
}

// TestSteppersZeroAllocs pins the steady state: once a stepper has
// built its line batches, a step over a warm, reused-dst backend
// allocates nothing.
func TestSteppersZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	be := reusedDst[float64](t)
	g := NewGrid2D(40, 33)
	u, f := field[float64](g.NX*g.NY, 1), field[float64](g.NX*g.NY, 2)
	h := &Heat2D[float64]{Grid: g, Alpha: 1, Backend: be}
	p := &Poisson2D[float64]{Grid: g, Backend: be}
	params := p.DefaultParams()
	g3 := NewGrid3D(12, 9, 10)
	u3 := field[float64](g3.NX*g3.NY*g3.NZ, 3)
	h3 := &Heat3D[float64]{Grid: g3, Alpha: 1, Backend: be}
	runs := map[string]func() error{
		"Heat2D.Step":       func() error { return h.Step(u, f, 1e-4) },
		"Heat2D.Step f nil": func() error { return h.Step(u, nil, 1e-4) },
		"Heat3D.Step":       func() error { return h3.Step(u3, 1e-4) },
		"Poisson2D.Iterate": func() error { _, err := p.Iterate(u, f, params, 1); return err },
	}
	for name, run := range runs {
		if err := run(); err != nil { // warm-up: batches and recordings
			t.Fatal(err)
		}
		var err error
		if a := testing.AllocsPerRun(10, func() { err = run() }); a != 0 {
			t.Errorf("%s: %v allocs per warm step, want 0", name, a)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
