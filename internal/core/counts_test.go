package core

import (
	"testing"

	"gputrid/internal/workload"
)

// TestKZeroTrafficClosedForm pins the k=0 path's global traffic to its
// closed form: p-Thomas loads 3 elements for the first row, 4 per
// remaining forward row and 2 per backward row (6N−3 per system), and
// stores c',d' forward plus x backward (3N per system).
func TestKZeroTrafficClosedForm(t *testing.T) {
	m, n := 64, 128
	b := workload.Batch[float64](workload.DiagDominant, m, n, 3)
	_, rep, err := Solve(Config{Device: dev(), K: 0}, b)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	elem := int64(8)
	wantLoads := int64(m) * (6*int64(n) - 3) * elem
	wantStores := int64(m) * 3 * int64(n) * elem
	if st.LoadedBytes != wantLoads {
		t.Errorf("loaded bytes = %d, want %d", st.LoadedBytes, wantLoads)
	}
	if st.StoredBytes != wantStores {
		t.Errorf("stored bytes = %d, want %d", st.StoredBytes, wantStores)
	}
	// Elimination steps: 2N−1 per system, the Table II Thomas count.
	if want := int64(m) * (2*int64(n) - 1); st.Eliminations != want {
		t.Errorf("eliminations = %d, want %d", st.Eliminations, want)
	}
}

// TestHybridTrafficClosedForm pins the two-kernel hybrid's traffic:
// the PCR stage reads the four input arrays once (plus aligned halo
// padding none for one block per system) and writes four reduced
// arrays; the p-Thomas stage re-reads them and writes c', d', x.
func TestHybridTrafficClosedForm(t *testing.T) {
	m, n, k := 4, 1024, 5
	b := workload.Batch[float64](workload.DiagDominant, m, n, 7)
	_, rep, err := Solve(Config{Device: dev(), K: k, BlocksPerSystem: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	elem := int64(8)
	pcrStats := rep.Kernels[0]
	// Each block loads its system's 4 arrays exactly once (no halo:
	// one block per system) and stores the 4 reduced arrays once.
	if want := int64(m) * 4 * int64(n) * elem; pcrStats.LoadedBytes != want {
		t.Errorf("PCR loaded %d bytes, want %d", pcrStats.LoadedBytes, want)
	}
	if want := int64(m) * 4 * int64(n) * elem; pcrStats.StoredBytes != want {
		t.Errorf("PCR stored %d bytes, want %d", pcrStats.StoredBytes, want)
	}
	// The back-end solves m·2^k subsystems covering all m·n rows:
	// same closed form as k=0 but per subsystem (first row of each
	// subsystem loads 3).
	thomasStats := rep.Kernels[1]
	subs := int64(m) * int64(1<<k)
	rows := int64(m) * int64(n)
	if want := (6*rows - 3*subs) * elem; thomasStats.LoadedBytes != want {
		t.Errorf("p-Thomas loaded %d bytes, want %d", thomasStats.LoadedBytes, want)
	}
	if want := 3 * rows * elem; thomasStats.StoredBytes != want {
		t.Errorf("p-Thomas stored %d bytes, want %d", thomasStats.StoredBytes, want)
	}
}

// TestFusedTrafficClosedForm pins the §III.C fused kernel's saving: the
// fused stage loads the inputs once and stores only c', d'; the
// backward kernel reads them and writes x. Total = 4N in + 2N out +
// 2N in + N out per system-row versus 15N−ish unfused.
func TestFusedTrafficClosedForm(t *testing.T) {
	m, n, k := 2, 2048, 6
	b := workload.Batch[float64](workload.DiagDominant, m, n, 9)
	_, rep, err := SolveFused(Config{Device: dev(), K: k}, b)
	if err != nil {
		t.Fatal(err)
	}
	elem := int64(8)
	rows := int64(m) * int64(n)
	fwd := rep.Kernels[0]
	if want := 4 * rows * elem; fwd.LoadedBytes != want {
		t.Errorf("fused forward loaded %d, want %d", fwd.LoadedBytes, want)
	}
	if want := 2 * rows * elem; fwd.StoredBytes != want {
		t.Errorf("fused forward stored %d, want %d", fwd.StoredBytes, want)
	}
	bwd := rep.Kernels[1]
	subs := int64(m) * int64(1<<k)
	// Backward: the last row of each subsystem loads dp only (1); the
	// rest load cp and dp (2 each). Stores x everywhere.
	if want := (2*rows - subs) * elem; bwd.LoadedBytes != want {
		t.Errorf("backward loaded %d, want %d", bwd.LoadedBytes, want)
	}
	if want := rows * elem; bwd.StoredBytes != want {
		t.Errorf("backward stored %d, want %d", bwd.StoredBytes, want)
	}
}

// TestEliminationCountsMatchTableII verifies the measured hybrid
// elimination count is k·N + (2·N − 2^k) per system — the Table II
// operation count the transition analysis is built on — up to the
// pipeline's warm-up overhead.
func TestEliminationCountsMatchTableII(t *testing.T) {
	m, n, k := 4, 4096, 6
	b := workload.Batch[float64](workload.DiagDominant, m, n, 11)
	_, rep, err := Solve(Config{Device: dev(), K: k, BlocksPerSystem: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	ideal := int64(m) * (int64(k)*int64(n) + 2*int64(n) - int64(1<<k))
	got := rep.Stats.Eliminations
	if got < ideal {
		t.Errorf("eliminations %d below the Table II minimum %d", got, ideal)
	}
	// Warm-up overhead is bounded by ~2 sub-tiles of k·S work per block.
	slack := int64(m) * int64(k) * int64(2<<k) * 2
	if got > ideal+slack {
		t.Errorf("eliminations %d exceed Table II count %d + warm-up slack %d", got, ideal, slack)
	}
}
