// Spline: batched natural cubic-spline interpolation (paper ref. [8] —
// cubic spline calculation is a classic tridiagonal workload). Many
// curves are fitted at once: each curve's second-derivative system is
// tridiagonal (the 1-4-1 system for uniform knots) and all curves solve
// as one batch on the device.
//
// The example fits splines through samples of smooth functions and
// verifies the interpolant at off-knot points against the true
// functions.
//
// Run with: go run ./examples/spline
package main

import (
	"fmt"
	"log"
	"math"

	"gputrid"
)

const (
	curves = 128 // M systems
	knots  = 257 // samples per curve
)

// family returns test function m evaluated at x in [0, 1].
func family(m int, x float64) float64 {
	switch m % 4 {
	case 0:
		return math.Sin(2 * math.Pi * x * float64(m%5+1))
	case 1:
		return math.Exp(-4 * x * math.Cos(float64(m%7)*x))
	case 2:
		return x*x*x - 0.4*x + 0.1*math.Sin(9*x)
	default:
		return 1 / (1 + 25*(x-0.4)*(x-0.4))
	}
}

func main() {
	h := 1.0 / float64(knots-1)
	y := make([][]float64, curves)
	for m := range y {
		y[m] = make([]float64, knots)
		for j := 0; j < knots; j++ {
			y[m][j] = family(m, float64(j)*h)
		}
	}

	// Natural spline second-derivative system: for interior knots
	// M[j-1] + 4 M[j] + M[j+1] = 6 (y[j-1] - 2 y[j] + y[j+1]) / h²,
	// with M = 0 at both ends (rows reduce to the 1-4-1 batch).
	n := knots - 2
	b := gputrid.NewBatch[float64](curves, n)
	for m := 0; m < curves; m++ {
		base := m * n
		for j := 0; j < n; j++ {
			if j > 0 {
				b.Lower[base+j] = 1
			}
			b.Diag[base+j] = 4
			if j < n-1 {
				b.Upper[base+j] = 1
			}
			b.RHS[base+j] = 6 * (y[m][j] - 2*y[m][j+1] + y[m][j+2]) / (h * h)
		}
	}

	res, err := gputrid.SolveBatch(b)
	if err != nil {
		log.Fatal(err)
	}
	if r := gputrid.Residual(b, res.X); !(r <= 1e-12) {
		log.Fatalf("spline example FAILED: residual %.3e", r)
	}

	// Evaluate each spline at midpoints between knots and compare with
	// the true function: cubic splines converge as O(h^4).
	var worst float64
	for m := 0; m < curves; m++ {
		msec := make([]float64, knots) // second derivatives incl. zero ends
		copy(msec[1:knots-1], res.X[m*n:(m+1)*n])
		for j := 0; j < knots-1; j++ {
			x := (float64(j) + 0.5) * h
			// Spline segment j evaluated at its midpoint.
			a := y[m][j]
			bb := (y[m][j+1]-y[m][j])/h - h*(2*msec[j]+msec[j+1])/6
			cc := msec[j] / 2
			dd := (msec[j+1] - msec[j]) / (6 * h)
			t := x - float64(j)*h
			s := a + t*(bb+t*(cc+t*dd))
			if e := math.Abs(s - family(m, x)); e > worst {
				worst = e
			}
		}
	}
	fmt.Printf("fitted %d natural cubic splines of %d knots (k=%d PCR steps)\n",
		curves, knots, res.K)
	fmt.Printf("max |spline − f| at midpoints = %.3e (O(h⁴) ≈ %.1e for the stiffest mode)\n",
		worst, 3e3*h*h*h*h)
	if worst > 1e-2 {
		log.Fatal("spline example FAILED: interpolation error too large")
	}
	fmt.Println("OK")
}
