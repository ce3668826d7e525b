// Quickstart: build one tridiagonal system, solve it with the hybrid
// tiled-PCR + p-Thomas solver, and verify the result.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gputrid"
)

func main() {
	const n = 4096

	// A diagonally dominant system: the 1-D Poisson stencil with a
	// stabilizing shift, right-hand side 1 everywhere.
	sys := gputrid.NewSystem[float64](n)
	for i := 0; i < n; i++ {
		if i > 0 {
			sys.Lower[i] = -1
		}
		if i < n-1 {
			sys.Upper[i] = -1
		}
		sys.Diag[i] = 2.05
		sys.RHS[i] = 1
	}

	res, err := gputrid.Solve(sys)
	if err != nil {
		log.Fatal(err)
	}
	// The fast path never pivots, so check the answer: the normwise
	// relative residual of a good double-precision solve is a small
	// multiple of machine epsilon.
	b := gputrid.NewBatch[float64](1, n)
	b.SetSystem(0, sys)
	r := gputrid.Residual(b, res.X)
	if !(r <= 1e-12) {
		log.Fatalf("residual %.3e too large", r)
	}

	fmt.Printf("solved %d unknowns with k=%d PCR steps, %d block(s) per system\n",
		n, res.K, res.BlocksPerSystem)
	fmt.Printf("x[0..4]       = %.6f %.6f %.6f %.6f %.6f\n",
		res.X[0], res.X[1], res.X[2], res.X[3], res.X[4])
	fmt.Printf("x[mid]        = %.6f (interior plateau of the shifted Poisson problem)\n", res.X[n/2])
	fmt.Printf("residual      = %.3e\n", r)
	fmt.Printf("modeled time  = %v on %s\n", res.ModeledTime, "GTX480 (simulated)")
	fmt.Printf("device events : %s\n", res.Stats)
}
