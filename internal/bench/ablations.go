package bench

import (
	"fmt"

	"gputrid/internal/core"
	"gputrid/internal/tiledpcr"
	"gputrid/internal/workload"
)

// Ablations returns the IDs of the ablation studies — experiments that
// quantify the paper's individual design choices rather than reproduce
// a specific figure.
func Ablations() []string {
	return []string{
		"ablation-naive", "ablation-fusion", "ablation-blocks",
		"ablation-c", "ablation-mux",
	}
}

// RunAblation executes one ablation by ID.
func (e *Env) RunAblation(id string) (*Table, error) {
	switch id {
	case "ablation-naive":
		return e.AblationNaiveTiling()
	case "ablation-fusion":
		return e.AblationFusion()
	case "ablation-blocks":
		return e.AblationBlocks()
	case "ablation-c":
		return e.AblationSubTileScale()
	case "ablation-mux":
		return e.AblationMultiplex()
	default:
		return nil, fmt.Errorf("bench: unknown ablation %q (have %v)", id, Ablations())
	}
}

// AblationNaiveTiling quantifies Fig. 7's argument: naive tiling pays
// f(k) halo loads and g(k) warm-up eliminations per boundary, so
// fine-grained tiles blow up the overhead that the buffered sliding
// window eliminates.
func (e *Env) AblationNaiveTiling() (*Table, error) {
	t := &Table{
		ID:    "ablation-naive",
		Title: "Naive tiling redundancy vs sliding window (N=4096, k=6)",
		Header: []string{"tileRows", "tiles", "loads", "redundant",
			"elims", "warmup", "load overhead", "elim overhead"},
		Notes: []string{"sliding window = single tile row: zero redundancy by construction"},
	}
	n, k := e.scale(4096), 6
	for _, tile := range []int{n, 1024, 256, 128, 64} {
		if tile > n {
			continue
		}
		bs := tiledpcr.NaiveTiling(n, k, tile)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(tile), fmt.Sprint(bs.Tiles),
			fmt.Sprint(bs.RawLoads), fmt.Sprint(bs.RedundantLoads),
			fmt.Sprint(bs.Eliminations), fmt.Sprint(bs.WarmupElims),
			fmt.Sprintf("%.1f%%", 100*float64(bs.RedundantLoads)/float64(bs.MinimalLoads)),
			fmt.Sprintf("%.1f%%", 100*float64(bs.Eliminations-bs.MinimalElims)/float64(bs.MinimalElims)),
		})
	}
	return t, nil
}

// AblationFusion compares the two-kernel hybrid against the §III.C
// fused kernel: global transactions saved vs occupancy lost.
func (e *Env) AblationFusion() (*Table, error) {
	t := &Table{
		ID:     "ablation-fusion",
		Title:  "Kernel fusion (§III.C): traffic saved vs occupancy lost",
		Header: []string{"MxN", "k", "unfused[ms]", "fused[ms]", "tx unfused", "tx fused", "tx saved"},
	}
	for _, sh := range []struct{ m, n, k int }{
		{4, 65536, 8}, {16, 16384, 7}, {64, 4096, 6}, {256, 1024, 6},
	} {
		m, n := sh.m, e.scale(sh.n)
		b := workload.Batch[float64](workload.DiagDominant, m, n, e.Seed)
		_, ru, err := core.Solve(core.Config{Device: e.GPU, K: sh.k, BlocksPerSystem: 1}, b)
		if err != nil {
			return nil, err
		}
		_, rf, err := core.SolveFused(core.Config{Device: e.GPU, K: sh.k}, b)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", m, n), fmt.Sprint(sh.k),
			ms(core.ModeledTime[float64](e.GPU, ru)),
			ms(core.ModeledTime[float64](e.GPU, rf)),
			fmt.Sprint(ru.Stats.Transactions()), fmt.Sprint(rf.Stats.Transactions()),
			fmt.Sprintf("%.0f%%", 100*(1-float64(rf.Stats.Transactions())/float64(ru.Stats.Transactions()))),
		})
	}
	return t, nil
}

// AblationBlocks sweeps blocks-per-system for one large system
// (Fig. 11(b)): more blocks buy parallelism at the price of halo
// redundancy per boundary.
func (e *Env) AblationBlocks() (*Table, error) {
	t := &Table{
		ID:     "ablation-blocks",
		Title:  "Blocks per system for M=1 (Fig. 11(b))",
		Header: []string{"blocks", "modeled[ms]", "loadedMB", "eliminations"},
	}
	n := e.scale(2 * 1024 * 1024)
	b := workload.Batch[float64](workload.DiagDominant, 1, n, e.Seed)
	for _, g := range []int{1, 2, 4, 8, 15, 30, 60} {
		_, rep, err := core.Solve(core.Config{Device: e.GPU, K: 8, BlocksPerSystem: g}, b)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(g), ms(core.ModeledTime[float64](e.GPU, rep)),
			fmt.Sprintf("%.2f", float64(rep.Stats.LoadedBytes)/(1<<20)),
			fmt.Sprint(rep.Stats.Eliminations),
		})
	}
	return t, nil
}

// AblationSubTileScale sweeps the Table I scale factor c: larger
// sub-tiles amortize barriers but grow the shared footprint.
func (e *Env) AblationSubTileScale() (*Table, error) {
	t := &Table{
		ID:     "ablation-c",
		Title:  "Sub-tile scale factor c (Table I) at M=32, N=16384, k=6",
		Header: []string{"c", "modeled[ms]", "barriers", "shared/block[B]", "occupancy"},
	}
	m, n, k := 32, e.scale(16384), 6
	b := workload.Batch[float64](workload.DiagDominant, m, n, e.Seed)
	for _, c := range []int{1, 2, 4, 8} {
		_, rep, err := core.Solve(core.Config{Device: e.GPU, K: k, C: c, BlocksPerSystem: 1}, b)
		if err != nil {
			return nil, err
		}
		pcrStats := rep.Kernels[0]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(c), ms(core.ModeledTime[float64](e.GPU, rep)),
			fmt.Sprint(pcrStats.Barriers), fmt.Sprint(pcrStats.SharedPerBlock),
			fmt.Sprint(e.GPU.Occupancy(pcrStats.ThreadsPerBlock, pcrStats.SharedPerBlock)),
		})
	}
	return t, nil
}

// AblationMultiplex sweeps systems-per-block (Fig. 11(c)).
func (e *Env) AblationMultiplex() (*Table, error) {
	t := &Table{
		ID:     "ablation-mux",
		Title:  "Systems per block q (Fig. 11(c)) at M=8, N=65536, k=6",
		Header: []string{"q", "modeled[ms]", "blocks", "shared/block[B]", "occupancy"},
	}
	m, n, k := 8, e.scale(65536), 6
	b := workload.Batch[float64](workload.DiagDominant, m, n, e.Seed)
	for _, q := range []int{1, 2, 4} {
		_, rep, err := core.SolveMultiplexed(core.Config{Device: e.GPU, K: k, BlocksPerSystem: 1}, q, b)
		if err != nil {
			return nil, err
		}
		pcrStats := rep.Kernels[0]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(q), ms(core.ModeledTime[float64](e.GPU, rep)),
			fmt.Sprint(pcrStats.Blocks), fmt.Sprint(pcrStats.SharedPerBlock),
			fmt.Sprint(e.GPU.Occupancy(pcrStats.ThreadsPerBlock, pcrStats.SharedPerBlock)),
		})
	}
	return t, nil
}
