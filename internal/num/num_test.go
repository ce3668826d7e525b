package num

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestEps(t *testing.T) {
	if got, want := Eps[float64](), math.Nextafter(1, 2)-1; got != want {
		t.Errorf("Eps[float64] = %g, want %g", got, want)
	}
	if got, want := Eps[float32](), float32(math.Nextafter32(1, 2)-1); got != want {
		t.Errorf("Eps[float32] = %g, want %g", got, want)
	}
}

func TestAbsMaxMin(t *testing.T) {
	if Abs(-3.5) != 3.5 || Abs(3.5) != 3.5 || Abs(0.0) != 0 {
		t.Error("Abs wrong")
	}
	if Max(2.0, 3.0) != 3.0 || Max(3.0, 2.0) != 3.0 {
		t.Error("Max wrong")
	}
	if Min(2.0, 3.0) != 2.0 || Min(3.0, 2.0) != 2.0 {
		t.Error("Min wrong")
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite(1.0) || !IsFinite(float32(-1e30)) {
		t.Error("finite values misclassified")
	}
	if IsFinite(math.NaN()) || IsFinite(math.Inf(1)) || IsFinite(math.Inf(-1)) {
		t.Error("non-finite values misclassified")
	}
	if IsFinite(float32(math.NaN())) {
		t.Error("float32 NaN misclassified")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024, 1 << 20} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -1, -4, 3, 5, 6, 7, 9, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1024: 10}
	for in, want := range cases {
		if got := Log2(in); got != want {
			t.Errorf("Log2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestLog2PanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Log2(0) did not panic")
		}
	}()
	Log2(0)
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4}
	for in, want := range cases {
		if got := CeilLog2(in); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	if CeilDiv(10, 3) != 4 || CeilDiv(9, 3) != 3 || CeilDiv(1, 3) != 1 || CeilDiv(0, 3) != 0 {
		t.Error("CeilDiv wrong")
	}
}

func TestSizeOf(t *testing.T) {
	if SizeOf[float32]() != 4 || SizeOf[float64]() != 8 {
		t.Error("SizeOf wrong")
	}
}

func TestRelDiff(t *testing.T) {
	if RelDiff(1.0, 1.0) != 0 {
		t.Error("RelDiff of equal values not 0")
	}
	if d := RelDiff(1e10, 1.0001e10); d > 1e-3 || d <= 0 {
		t.Errorf("RelDiff scale-insensitivity broken: %g", d)
	}
}

func TestNextPow2Property(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%60000) + 1
		p := NextPow2(n)
		return IsPow2(p) && p >= n && (p == 1 || p/2 < n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced stuck generator")
	}
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestRNGRangeBounds(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range out of [-2,5): %g", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(9)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) only produced %d distinct values in 1000 draws", len(seen))
	}
}

func TestRandomGeneric(t *testing.T) {
	r := NewRNG(10)
	for i := 0; i < 100; i++ {
		v := Random[float32](r, 1, 2)
		if v < 1 || v >= 2 {
			t.Fatalf("Random[float32] out of bounds: %g", v)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"odd", []float64{5, 1, 9, 3, 7}, 5},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"even pair", []float64{3, 1}, 2},
		{"duplicates", []float64{2, 2, 9, 2}, 2},
	} {
		if got := Median(tc.xs); got != tc.want {
			t.Errorf("%s: Median(%v) = %v, want %v", tc.name, tc.xs, got, tc.want)
		}
		if !slices.IsSorted(tc.xs) {
			t.Errorf("%s: Median left %v unsorted", tc.name, tc.xs)
		}
	}
	if got := Median([]float32{1, 4}); got != 2.5 {
		t.Errorf("float32 Median = %v, want 2.5", got)
	}
}
