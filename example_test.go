package gputrid_test

import (
	"fmt"

	"gputrid"
)

// ExampleSolve solves one diagonally dominant system and prints the
// head of the solution.
func ExampleSolve() {
	n := 8
	s := gputrid.NewSystem[float64](n)
	for i := 0; i < n; i++ {
		if i > 0 {
			s.Lower[i] = -1
		}
		if i < n-1 {
			s.Upper[i] = -1
		}
		s.Diag[i] = 4
		s.RHS[i] = 2
	}
	res, err := gputrid.Solve(s)
	if err != nil {
		panic(err)
	}
	// The fast path never pivots, so check the answer's residual.
	b := gputrid.NewBatch[float64](1, n)
	b.SetSystem(0, s)
	if r := gputrid.Residual(b, res.X); !(r <= 1e-13) {
		panic(fmt.Sprintf("residual %.3e", r))
	}
	fmt.Printf("%.4f %.4f %.4f\n", res.X[0], res.X[1], res.X[2])
	// Output: 0.7320 0.9281 0.9804
}

// ExampleSolveBatch solves many systems at once; the hybrid picks the
// number of PCR steps from the batch size (Table III).
func ExampleSolveBatch() {
	m, n := 64, 32
	b := gputrid.NewBatch[float64](m, n)
	for i := 0; i < m*n; i++ {
		b.Diag[i] = 2
		b.RHS[i] = 1
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if j > 0 {
				b.Lower[i*n+j] = -0.5
			}
			if j < n-1 {
				b.Upper[i*n+j] = -0.5
			}
		}
	}
	res, err := gputrid.SolveBatch(b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("k=%d residual<=%v\n", res.K, gputrid.Residual(b, res.X) < 1e-12)
	// Output: k=5 residual<=true
}

// ExampleWithK pins the algorithm-transition point manually.
func ExampleWithK() {
	s := gputrid.NewSystem[float64](256)
	for i := 0; i < 256; i++ {
		s.Diag[i] = 3
		s.RHS[i] = 1
	}
	res, err := gputrid.Solve(s, gputrid.WithK(4))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.K, res.BlocksPerSystem > 0)
	// Output: 4 true
}

// ExampleConditionEst estimates conditioning before trusting the
// non-pivoting fast path.
func ExampleConditionEst() {
	s := gputrid.NewSystem[float64](4)
	for i := 0; i < 4; i++ {
		s.Diag[i] = 1 // identity: perfectly conditioned
	}
	fmt.Printf("%.0f\n", gputrid.ConditionEst(s))
	// Output: 1
}
