// Package num provides the floating-point type constraint and small
// numeric helpers shared by every solver package in this module.
//
// All solver code in this repository is generic over num.Real so that the
// same kernels run in single precision (the paper's float experiments)
// and double precision (the paper's headline results).
package num

import (
	"math"
	"slices"
)

// Real is the constraint satisfied by the floating-point element types
// the solvers operate on. It mirrors the paper's use of CUDA float and
// double.
type Real interface {
	~float32 | ~float64
}

// Eps returns the machine epsilon of T: the difference between 1 and the
// least value greater than 1 that is representable in T.
func Eps[T Real]() T {
	var one T = 1
	switch any(one).(type) {
	case float32:
		return T(math.Float32frombits(0x34000000)) // 2^-23
	default:
		return T(math.Float64frombits(0x3CB0000000000000)) // 2^-52
	}
}

// Abs returns |x|.
func Abs[T Real](x T) T {
	if x < 0 {
		return -x
	}
	return x
}

// Max returns the larger of a and b.
func Max[T Real](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min[T Real](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// Bits returns the IEEE 754 bit pattern of x at T's own width, so
// bitwise-identity checks tell -0 from +0 and compare NaN payloads.
func Bits[T Real](x T) uint64 {
	if SizeOf[T]() == 4 {
		return uint64(math.Float32bits(float32(x)))
	}
	return math.Float64bits(float64(x))
}

// IsFinite reports whether x is neither NaN nor an infinity.
func IsFinite[T Real](x T) bool {
	f := float64(x)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// NextPow2 returns the smallest power of two >= n. NextPow2(0) == 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// Log2 returns floor(log2(n)) for n >= 1.
func Log2(n int) int {
	if n < 1 {
		panic("num: Log2 of non-positive value")
	}
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// CeilLog2 returns ceil(log2(n)) for n >= 1.
func CeilLog2(n int) int {
	return Log2(NextPow2(n))
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int) int {
	return (a + b - 1) / b
}

// SizeOf returns the byte width of T (4 for float32, 8 for float64).
func SizeOf[T Real]() int {
	var one T = 1
	switch any(one).(type) {
	case float32:
		return 4
	default:
		return 8
	}
}

// RelDiff returns |a-b| / max(|a|, |b|, 1), a scale-insensitive
// difference used by the verification helpers.
func RelDiff[T Real](a, b T) T {
	d := Abs(a - b)
	s := Max(Max(Abs(a), Abs(b)), 1)
	return d / s
}

// Median returns the middle value of xs, or the mean of the two middle
// values when len(xs) is even; 0 for no values. It sorts xs in place.
func Median[T Real](xs []T) T {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// EWMA is an exponentially weighted moving average: the first sample
// replaces the estimate, and each later one moves it by alpha of the
// gap. It is not synchronized; its owner guards it.
type EWMA struct {
	V float64 // the estimate
	N int     // samples folded in
}

// Add folds sample x into the average with weight alpha.
func (e *EWMA) Add(x, alpha float64) {
	if e.N == 0 {
		e.V = x
	} else {
		e.V += alpha * (x - e.V)
	}
	e.N++
}
