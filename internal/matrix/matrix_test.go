package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"gputrid/internal/num"
)

// tiny deterministic generator local to this package's tests.
func testSystem(n int, seed uint64) *System[float64] {
	r := num.NewRNG(seed)
	s := NewSystem[float64](n)
	for i := 0; i < n; i++ {
		if i > 0 {
			s.Lower[i] = r.Range(-1, 1)
		}
		if i < n-1 {
			s.Upper[i] = r.Range(-1, 1)
		}
		s.Diag[i] = math.Abs(s.Lower[i]) + math.Abs(s.Upper[i]) + r.Range(0.5, 1.5)
		s.RHS[i] = r.Range(-10, 10)
	}
	return s
}

func TestNewSystemZeroed(t *testing.T) {
	s := NewSystem[float64](5)
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	for i := 0; i < 5; i++ {
		if s.Lower[i] != 0 || s.Diag[i] != 0 || s.Upper[i] != 0 || s.RHS[i] != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := testSystem(8, 1)
	c := s.Clone()
	c.Diag[3] = 999
	if s.Diag[3] == 999 {
		t.Error("Clone shares storage")
	}
}

func TestValidate(t *testing.T) {
	s := testSystem(8, 2)
	if err := s.Validate(); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
	s.Diag[4] = math.NaN()
	if s.Validate() == nil {
		t.Error("NaN accepted")
	}
	bad := &System[float64]{Lower: make([]float64, 3), Diag: make([]float64, 4),
		Upper: make([]float64, 4), RHS: make([]float64, 4)}
	if bad.Validate() == nil {
		t.Error("length mismatch accepted")
	}
}

func TestApplyIdentity(t *testing.T) {
	n := 6
	s := NewSystem[float64](n)
	for i := 0; i < n; i++ {
		s.Diag[i] = 1
	}
	x := []float64{1, 2, 3, 4, 5, 6}
	y := s.Apply(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity apply wrong at %d", i)
		}
	}
}

func TestApplyKnown(t *testing.T) {
	// [2 1; 1 2] x = y with x = (1, 1) -> y = (3, 3)
	s := NewSystem[float64](2)
	s.Diag[0], s.Upper[0] = 2, 1
	s.Lower[1], s.Diag[1] = 1, 2
	y := s.Apply([]float64{1, 1})
	if y[0] != 3 || y[1] != 3 {
		t.Fatalf("Apply = %v, want [3 3]", y)
	}
}

func TestDiagonallyDominant(t *testing.T) {
	s := testSystem(16, 3)
	if !s.DiagonallyDominant(0.25) {
		t.Error("generated dominant system not recognized")
	}
	s.Diag[7] = 0
	if s.DiagonallyDominant(0) {
		t.Error("broken dominance not detected")
	}
}

func TestInfNorm(t *testing.T) {
	s := NewSystem[float64](3)
	s.Diag[0], s.Upper[0] = -2, 1 // row sum 3
	s.Lower[1], s.Diag[1], s.Upper[1] = 1, 5, -1
	s.Lower[2], s.Diag[2] = 2, 2
	if got := s.InfNorm(); got != 7 {
		t.Errorf("InfNorm = %g, want 7", got)
	}
}

func TestSolveDenseKnown(t *testing.T) {
	// 2x2: [2 1; 1 2] x = [3; 3] -> x = (1, 1)
	s := NewSystem[float64](2)
	s.Diag[0], s.Upper[0], s.RHS[0] = 2, 1, 3
	s.Lower[1], s.Diag[1], s.RHS[1] = 1, 2, 3
	x, err := SolveDense(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v, want [1 1]", x)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	s := NewSystem[float64](2) // all zero
	if _, err := SolveDense(s); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveDenseResidualProperty(t *testing.T) {
	f := func(seedRaw uint16, nRaw uint8) bool {
		n := int(nRaw)%30 + 2
		s := testSystem(n, uint64(seedRaw)+100)
		x, err := SolveDense(s)
		if err != nil {
			return false
		}
		return Residual(s, x) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSolveDensePivotingHandlesZeroDiag(t *testing.T) {
	// Row 0 has zero diagonal but the system is nonsingular:
	// [0 1; 1 0] x = [2; 3] -> x = (3, 2).
	s := NewSystem[float64](2)
	s.Upper[0], s.RHS[0] = 1, 2
	s.Lower[1], s.RHS[1] = 1, 3
	x, err := SolveDense(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestBatchSystemViewsShareStorage(t *testing.T) {
	b := NewBatch[float64](3, 4)
	b.System(1).Diag[2] = 42
	if b.Diag[1*4+2] != 42 {
		t.Error("System view does not alias batch storage")
	}
}

func TestBatchSetSystem(t *testing.T) {
	b := NewBatch[float64](2, 5)
	s := testSystem(5, 9)
	b.SetSystem(1, s)
	got := b.System(1)
	for j := 0; j < 5; j++ {
		if got.Diag[j] != s.Diag[j] || got.RHS[j] != s.RHS[j] {
			t.Fatal("SetSystem copy mismatch")
		}
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	m, n := 5, 7
	b := NewBatch[float64](m, n)
	r := num.NewRNG(4)
	for i := range b.Diag {
		b.Lower[i] = r.Range(-1, 1)
		b.Diag[i] = r.Range(1, 2)
		b.Upper[i] = r.Range(-1, 1)
		b.RHS[i] = r.Range(-5, 5)
	}
	v := b.ToInterleaved()
	back := v.ToBatch()
	if MaxAbsDiff(b.Diag, back.Diag) != 0 || MaxAbsDiff(b.Lower, back.Lower) != 0 ||
		MaxAbsDiff(b.Upper, back.Upper) != 0 || MaxAbsDiff(b.RHS, back.RHS) != 0 {
		t.Error("interleave round trip not exact")
	}
}

func TestVectorInterleaveRoundTrip(t *testing.T) {
	m, n := 3, 4
	x := make([]float64, m*n)
	for i := range x {
		x[i] = float64(i)
	}
	y := InterleaveVector(x, m, n)
	z := DeinterleaveVector(y, m, n)
	if MaxAbsDiff(x, z) != 0 {
		t.Error("vector interleave round trip not exact")
	}
	// Spot-check placement: contiguous x[i*n+j] must land at j*m+i.
	if y[2*3+1] != x[1*4+2] {
		t.Error("InterleaveVector placement wrong")
	}
}

func TestResidualExactSolutionIsZero(t *testing.T) {
	s := testSystem(10, 30)
	x, err := SolveDense(s)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(s, x); r > 1e-14 {
		t.Errorf("residual of reference solution = %g", r)
	}
}

func TestResidualDetectsWrongSolution(t *testing.T) {
	s := testSystem(10, 31)
	x := make([]float64, 10) // all zeros, certainly wrong for random RHS
	if r := Residual(s, x); r < 1e-3 {
		t.Errorf("residual of zero solution suspiciously small: %g", r)
	}
}

func TestCheckSolution(t *testing.T) {
	s := testSystem(12, 32)
	x, err := SolveDense(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSolution(s, x); err != nil {
		t.Errorf("good solution rejected: %v", err)
	}
	x[5] = math.NaN()
	if CheckSolution(s, x) == nil {
		t.Error("NaN solution accepted")
	}
}

func TestMaxResidualBatch(t *testing.T) {
	m, n := 4, 8
	b := NewBatch[float64](m, n)
	x := make([]float64, m*n)
	for i := 0; i < m; i++ {
		s := testSystem(n, uint64(i)+40)
		b.SetSystem(i, s)
		xi, err := SolveDense(s)
		if err != nil {
			t.Fatal(err)
		}
		copy(x[i*n:(i+1)*n], xi)
	}
	if r := MaxResidual(b, x); r > 1e-13 {
		t.Errorf("MaxResidual = %g", r)
	}
	x[2*n+3] += 1 // corrupt system 2
	if r := MaxResidual(b, x); r < 1e-6 {
		t.Errorf("corruption not detected: %g", r)
	}
}

// A non-finite input must read as the worst residual, +Inf, whichever
// system it sits in: an infinite or NaN right-hand side, a NaN
// solution entry, and finite data whose |A x − d| and norms overflow
// (Inf/Inf). So a `<= tol` check fails the batch and a `> tol` check
// catches it.
func TestMaxResidualNonFiniteIsWorst(t *testing.T) {
	const m, n = 2, 3
	poison := map[string]func(b *Batch[float64], x []float64, row int){
		"rhs=+Inf": func(b *Batch[float64], x []float64, row int) { b.RHS[row] = math.Inf(1) },
		"rhs=NaN":  func(b *Batch[float64], x []float64, row int) { b.RHS[row] = math.NaN() },
		"x=NaN":    func(b *Batch[float64], x []float64, row int) { x[row] = math.NaN() },
		"overflow": func(b *Batch[float64], x []float64, row int) { b.Diag[row], b.RHS[row] = 1.5e308, -1.5e308 },
	}
	for name, bad := range poison {
		for sys := 0; sys < m; sys++ {
			b := NewBatch[float64](m, n)
			x := make([]float64, m*n)
			for i := range x {
				b.Diag[i], b.RHS[i], x[i] = 1, 1, 1
			}
			bad(b, x, sys*n)
			if r := MaxResidual(b, x); !math.IsInf(r, 1) {
				t.Errorf("%s in system %d: MaxResidual = %g, want +Inf", name, sys, r)
			}
		}
	}
}

func TestResidualToleranceScales(t *testing.T) {
	if ResidualTolerance[float64](100) >= ResidualTolerance[float32](100) {
		t.Error("double tolerance should be tighter than single")
	}
	if ResidualTolerance[float64](10) >= ResidualTolerance[float64](10000) {
		t.Error("tolerance should grow with n")
	}
	if ResidualTolerance[float32](1<<30) > 1e-2 {
		t.Error("tolerance cap not applied")
	}
}

func TestBatchValidate(t *testing.T) {
	b := NewBatch[float64](2, 3)
	if err := b.Validate(); err != nil {
		t.Errorf("zero batch should validate: %v", err)
	}
	b.Diag[4] = math.Inf(1)
	if b.Validate() == nil {
		t.Error("Inf accepted")
	}
}

// TestBatchCheckShapeOverflow: a shape whose M*N wraps int to 0 must
// not pass against empty slices (Validate would then slice out of
// range in System).
func TestBatchCheckShapeOverflow(t *testing.T) {
	cases := []*Batch[float64]{
		{M: 1 << 32, N: 1 << 32},
		{M: 1 << 62, N: 4},
		{M: 0, N: 3},
		{M: 2, N: -3},
		{M: 2, N: 3, Lower: make([]float64, 6), Diag: make([]float64, 6), Upper: make([]float64, 6), RHS: make([]float64, 5)},
		{M: 2, N: 3, Lower: make([]float64, 7), Diag: make([]float64, 7), Upper: make([]float64, 7), RHS: make([]float64, 7)},
	}
	for _, b := range cases {
		if b.CheckShape() == nil {
			t.Errorf("%dx%d (|d| = %d) passed CheckShape", b.M, b.N, len(b.Diag))
		}
		if b.Validate() == nil {
			t.Errorf("%dx%d (|d| = %d) passed Validate", b.M, b.N, len(b.Diag))
		}
	}
	ok := NewBatch[float64](2, 3)
	if err := ok.CheckShape(); err != nil {
		t.Errorf("well-formed batch rejected: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ok.CheckShape() }); n != 0 {
		t.Errorf("CheckShape allocates %v times on a well-formed batch", n)
	}
}

func TestPanicsOnBadShapes(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewBatch(0,1)", func() { NewBatch[float64](0, 1) })
	mustPanic("NewInterleaved(1,0)", func() { NewInterleaved[float64](1, 0) })
	mustPanic("System index", func() { NewBatch[float64](2, 2).System(5) })
	mustPanic("Apply mismatch", func() { NewSystem[float64](3).Apply(make([]float64, 2)) })
	mustPanic("Residual mismatch", func() { Residual(NewSystem[float64](3), make([]float64, 2)) })
}
