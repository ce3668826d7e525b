package core

import (
	"testing"
	"testing/quick"

	"gputrid/internal/cpu"
	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

func dev() *gpusim.Device { return gpusim.GTX480() }

func solveAndCheck(t *testing.T, cfg Config, m, n int, seed uint64) *Report {
	t.Helper()
	b := workload.Batch[float64](workload.DiagDominant, m, n, seed)
	x, rep, err := Solve(cfg, b)
	if err != nil {
		t.Fatalf("m=%d n=%d cfg=%+v: %v", m, n, cfg, err)
	}
	if r := matrix.MaxResidual(b, x); r > matrix.ResidualTolerance[float64](n) {
		t.Errorf("m=%d n=%d cfg=%+v: residual %g", m, n, cfg, r)
	}
	want, err := cpu.SolveBatchSeq(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxRelDiff(x, want); d > 1e-8 {
		t.Errorf("m=%d n=%d cfg=%+v: differs from CPU Thomas by %g", m, n, cfg, d)
	}
	return rep
}

func TestSolveExplicitK(t *testing.T) {
	for _, tc := range []struct{ m, n, k int }{
		{1, 512, 4},
		{4, 256, 3},
		{16, 128, 2},
		{2, 1000, 5}, // non-power-of-two N
		{3, 100, 6},  // k clamped by... no, 2^6=64 <= 100, fine
		{1, 4096, 8},
		{8, 64, 1},
		{100, 64, 0}, // pure p-Thomas
	} {
		rep := solveAndCheck(t, Config{Device: dev(), K: tc.k}, tc.m, tc.n, uint64(tc.m*tc.n+tc.k))
		if rep.K != tc.k {
			t.Errorf("%+v: report K = %d", tc, rep.K)
		}
	}
}

func TestSolveAutoK(t *testing.T) {
	// Auto selection must apply Table III (clamped by system size).
	for _, tc := range []struct{ m, n, wantK int }{
		{1, 4096, 8},
		{20, 2048, 7},
		{100, 1024, 6},
		{600, 512, 5},
		{2000, 64, 0},
		{4, 32, 5}, // heuristic 8 clamped: 2^8 > 32 -> k = 5
	} {
		b := workload.Batch[float64](workload.DiagDominant, tc.m, tc.n, 77)
		x, rep, err := Solve(Config{Device: dev(), K: KAuto}, b)
		if err != nil {
			t.Fatal(err)
		}
		if rep.K != tc.wantK {
			t.Errorf("m=%d n=%d: auto k = %d, want %d", tc.m, tc.n, rep.K, tc.wantK)
		}
		if r := matrix.MaxResidual(b, x); r > matrix.ResidualTolerance[float64](tc.n) {
			t.Errorf("m=%d n=%d: residual %g", tc.m, tc.n, r)
		}
	}
}

func TestSolveMultiBlock(t *testing.T) {
	for _, g := range []int{1, 2, 4, 7} {
		rep := solveAndCheck(t, Config{Device: dev(), K: 5, BlocksPerSystem: g}, 2, 2048, uint64(g))
		if rep.BlocksPerSystem != g {
			t.Errorf("g=%d: report %d", g, rep.BlocksPerSystem)
		}
	}
}

func TestSolveFusedMatchesUnfused(t *testing.T) {
	m, n, k := 3, 512, 5
	b := workload.Batch[float64](workload.DiagDominant, m, n, 13)
	xu, _, err := Solve(Config{Device: dev(), K: k, BlocksPerSystem: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	xf, rep, err := SolveFused(Config{Device: dev(), K: k}, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kernels[0].Kernel != "tiledPCR+pThomasFwd" {
		t.Errorf("first kernel %q, want the fused one", rep.Kernels[0].Kernel)
	}
	if d := matrix.MaxAbsDiff(xu, xf); d != 0 {
		t.Errorf("fused and unfused differ by %g (same arithmetic order expected)", d)
	}
}

func TestFusedSavesGlobalTraffic(t *testing.T) {
	m, n, k := 2, 2048, 6
	b := workload.Batch[float64](workload.DiagDominant, m, n, 17)
	_, ru, err := Solve(Config{Device: dev(), K: k, BlocksPerSystem: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	_, rf, err := SolveFused(Config{Device: dev(), K: k}, b)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Stats.Transactions() >= ru.Stats.Transactions() {
		t.Errorf("fusion did not reduce global traffic: %d vs %d",
			rf.Stats.Transactions(), ru.Stats.Transactions())
	}
	if len(rf.Kernels) != 2 || len(ru.Kernels) != 2 {
		t.Errorf("kernel counts: fused %d, unfused %d", len(rf.Kernels), len(ru.Kernels))
	}
}

func TestSolveFusedRequiresSingleBlock(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 1, 256, 1)
	if _, _, err := SolveFused(Config{Device: dev(), K: 4, BlocksPerSystem: 2}, b); err == nil {
		t.Error("fusion with 2 blocks per system accepted")
	}
}

// TestSolveMatchesReference pins SolveReference to the pipeline bit
// for bit, so a sign of zero or a NaN payload would count as a
// difference. At k = 7 on N = 77 both clamp to k = 6.
func TestSolveMatchesReference(t *testing.T) {
	for _, kind := range []workload.Kind{workload.DiagDominant, workload.NearSingular} {
		for _, n := range []int{77, 1001} {
			for _, k := range []int{0, 1, 4, 7} {
				b := workload.Batch[float64](kind, 4, n, uint64(23+n+k))
				x, _, err := Solve(Config{Device: dev(), K: k}, b)
				if err != nil {
					t.Fatal(err)
				}
				ref := SolveReference(b, k)
				if i := firstDiff(x, ref); i >= 0 {
					t.Errorf("%v N=%d k=%d: x[%d] pipeline %#x, reference %#x",
						kind, n, k, i, num.Bits(x[i]), num.Bits(ref[i]))
				}
			}
		}
	}
}

func TestSolveSystem(t *testing.T) {
	s := workload.System[float64](workload.Toeplitz, 777, 3)
	b := matrix.NewBatch[float64](1, s.N())
	b.SetSystem(0, s)
	x, rep, err := Solve(Config{Device: dev(), K: KAuto}, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.K == 0 {
		t.Error("single system should use PCR steps")
	}
	if err := matrix.CheckSolution(s, x); err != nil {
		t.Error(err)
	}
}

func TestSolveOtherWorkloads(t *testing.T) {
	for _, kind := range []workload.Kind{workload.Toeplitz, workload.Heat, workload.Spline} {
		b := workload.Batch[float64](kind, 8, 256, 5)
		x, _, err := Solve(Config{Device: dev(), K: KAuto}, b)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if r := matrix.MaxResidual(b, x); r > matrix.ResidualTolerance[float64](256) {
			t.Errorf("%v: residual %g", kind, r)
		}
	}
}

func TestSolveFloat32(t *testing.T) {
	b := workload.Batch[float32](workload.DiagDominant, 6, 512, 9)
	x, _, err := Solve(Config{Device: dev(), K: 5}, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := matrix.MaxResidual(b, x); r > matrix.ResidualTolerance[float32](512) {
		t.Errorf("float32 residual %g", r)
	}
}

func TestHeuristicKTableIII(t *testing.T) {
	cases := map[int]int{1: 8, 15: 8, 16: 7, 31: 7, 32: 6, 511: 6, 512: 5, 1023: 5, 1024: 0, 100000: 0}
	for m, want := range cases {
		if got := HeuristicK(m); got != want {
			t.Errorf("HeuristicK(%d) = %d, want %d", m, got, want)
		}
	}
	rows := TableIII()
	if len(rows) != 5 {
		t.Fatalf("TableIII has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TileSize != 1<<r.K && !(r.K == 0 && r.TileSize == 1) {
			t.Errorf("row %+v: tile size != 2^k", r)
		}
		if got := HeuristicK(r.MLo); got != r.K {
			t.Errorf("HeuristicK(%d) = %d, want %d", r.MLo, got, r.K)
		}
	}
}

func TestModeledTimePositive(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 32, 256, 2)
	_, rep, err := Solve(Config{Device: dev(), K: 4}, b)
	if err != nil {
		t.Fatal(err)
	}
	if mt := ModeledTime[float64](dev(), rep); mt <= 0 {
		t.Errorf("modeled time %g", mt)
	}
	// Single precision models faster or equal.
	if ModeledTime[float32](dev(), rep) > ModeledTime[float64](dev(), rep) {
		t.Error("float32 modeled slower than float64")
	}
}

func TestTuneKAgreesWithHeuristicDirection(t *testing.T) {
	// The autotuner need not match Table III exactly (our device model
	// is not their silicon) but must follow the same direction: small M
	// wants more PCR steps than huge M.
	kSmall, _ := TuneK[float64](dev(), 4, 1024)
	kBig, timesBig := TuneK[float64](dev(), 2048, 128)
	if kSmall < 3 {
		t.Errorf("TuneK(M=4) = %d, expected deep PCR", kSmall)
	}
	if kBig > 2 {
		t.Errorf("TuneK(M=4096) = %d, expected shallow PCR", kBig)
	}
	if timesBig[kBig] <= 0 || timesBig[kBig] >= 1e300 {
		t.Errorf("tuned time invalid: %g", timesBig[kBig])
	}
}

func TestSolveProperty(t *testing.T) {
	f := func(seed uint32, mRaw, nRaw, kRaw uint8) bool {
		m := int(mRaw)%20 + 1
		n := int(nRaw)%300 + 2
		k := int(kRaw) % 7
		b := workload.Batch[float64](workload.DiagDominant, m, n, uint64(seed))
		x, _, err := Solve(Config{Device: dev(), K: k}, b)
		if err != nil {
			return false
		}
		return matrix.MaxResidual(b, x) <= matrix.ResidualTolerance[float64](n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
