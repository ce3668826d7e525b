package tiledpcr

import (
	"fmt"

	"gputrid/internal/gpusim"
	"gputrid/internal/num"
	"gputrid/internal/pcr"
)

// Arrays bundles the four device-global coefficient arrays of a
// tridiagonal system (or batch of systems laid out back to back).
type Arrays[T num.Real] struct {
	A, B, C, D gpusim.Global[T]
}

// NewArrays wraps the coefficient slices as device-global arrays.
func NewArrays[T num.Real](a, b, c, d []T) Arrays[T] {
	return Arrays[T]{
		A: gpusim.NewGlobal(a),
		B: gpusim.NewGlobal(b),
		C: gpusim.NewGlobal(c),
		D: gpusim.NewGlobal(d),
	}
}

// Window is the buffered sliding window of paper §III.A instantiated
// inside one simulated thread block. Its shared-memory layout follows
// Figs. 9-10:
//
//   - a staging buffer of 2^k + S + 1 elements per coefficient
//     (S = c·2^k, the sub-tile size) holding the level currently being
//     reduced — the "middle + bottom" of the paper's window;
//   - per-level history caches totalling 2·f(k) + k elements per
//     coefficient (level j keeps its newest 2^(j+1)+1 values) — the
//     paper's "top buffer" cache of intermediate dependencies;
//   - a register tile of S rows (the paper's §III.C register tiling)
//     receiving each level's fresh values between barriers, so the
//     staging buffer can be rebuilt in place without read/write races.
//
// The history caches hold one element more per level than the f(k)
// dependency minimum. That is the paper's alignment margin ("it can be
// solved by shifting the computation boundary by caching e5", Fig.
// 10(a)): it stretches the pipeline lag from f(k) = 2^k − 1 to exactly
// 2^k, so both the raw-load phase and the output sub-tile stay aligned
// to sub-tile boundaries and global accesses coalesce perfectly.
//
// Each raw element is loaded from global memory exactly once per block
// and each elimination is performed exactly once (plus warm-up work of
// about f(k) halo loads and g(k) eliminations per boundary when a
// system is split across blocks, exactly as the paper describes for
// Fig. 11(b)).
type Window[T num.Real] struct {
	blk     *gpusim.Block
	k, c, S int
	threads int
	n       int // rows in this system
	sysBase int // global offset of the system's row 0
	in      Arrays[T]

	// stage and hist model the window's __shared__ arrays. They are
	// plain slices (accessed like Shared.Data, with traffic accounted
	// in bulk via CountShared) so one Window's buffers can be re-bound
	// to a new block each launch instead of reallocated; Bind charges
	// sharedBytes against the block exactly as NewShared would. The
	// row-of-structs layout turns each 4-coefficient access into one
	// bounds check over one contiguous 4-element record; the recorded
	// traffic (bulk element counts) is layout-independent.
	stage       []pcr.Row[T]
	hist        []pcr.Row[T]
	sharedBytes int
	histOff     []int // offset of level j's (2^(j+1)+1)-element history
	r0          int   // first raw index of the current run (set by InitRun)

	// Out is the register tile: after each sub-tile phase it holds the
	// S freshly reduced level-k rows, Out[p] being row outBase+p.
	Out []pcr.Row[T]
}

// NewWindowBuffers allocates a window's buffers (shared-memory images,
// history offsets, register tile) for depth k and sub-tile scale c
// without binding them to a block. The result is reusable: call Bind
// to attach it to a block and a system before each run. Requires
// k >= 1 and c >= 1.
func NewWindowBuffers[T num.Real](k, c int) *Window[T] {
	if k < 1 || c < 1 {
		panic(fmt.Sprintf("tiledpcr: NewWindowBuffers requires k >= 1 and c >= 1, got k=%d c=%d", k, c))
	}
	w := &Window[T]{k: k, c: c, S: c << k, threads: 1 << k}
	stageCap := (1 << k) + w.S + 1
	w.histOff = make([]int, k)
	total := 0
	for j := 0; j < k; j++ {
		w.histOff[j] = total
		total += (2 << j) + 1
	}
	w.stage = make([]pcr.Row[T], stageCap)
	w.hist = make([]pcr.Row[T], total)
	w.sharedBytes = 4 * (stageCap + total) * num.SizeOf[T]()
	w.Out = make([]pcr.Row[T], w.S)
	return w
}

// Bind attaches the window to block blk for a system of n rows whose
// row 0 lives at global index sysBase of the arrays in, charging the
// window's shared-memory footprint against the block. It allocates
// nothing and returns w for chaining. Stale buffer contents from a
// previous run are harmless: InitRun re-initializes the history
// caches, every staged value is rewritten before it is read, and the
// only Out entries that could see leftover state are the pipeline
// warm-up rows outside OutRange, which callers already discard (the
// same dependency-cone argument that lets an interior block start from
// placeholder history, §III.A).
func (w *Window[T]) Bind(blk *gpusim.Block, n, sysBase int, in Arrays[T]) *Window[T] {
	w.blk = blk
	w.n = n
	w.sysBase = sysBase
	w.in = in
	blk.ChargeSharedAlloc(w.sharedBytes)
	return w
}

// NewWindow allocates the window's shared memory in block blk for a
// system of n rows whose row 0 lives at global index sysBase of the
// arrays in. Requires k >= 1 and c >= 1.
func NewWindow[T num.Real](blk *gpusim.Block, k, c, n, sysBase int, in Arrays[T]) *Window[T] {
	return NewWindowBuffers[T](k, c).Bind(blk, n, sysBase, in)
}

// Threads returns the thread-block width the window is designed for
// (2^k, per Table I).
func (w *Window[T]) Threads() int { return w.threads }

// loadRaw reads row i of the system from global memory with identity
// padding outside [0, n) and the Lower[0]/Upper[n-1] normalization of
// the solver convention.
func (w *Window[T]) loadRaw(t *gpusim.Thread, i int) pcr.Row[T] {
	if i < 0 || i >= w.n {
		return pcr.Identity[T]()
	}
	g := w.sysBase + i
	r := pcr.Row[T]{
		A: w.in.A.Load(t, g),
		B: w.in.B.Load(t, g),
		C: w.in.C.Load(t, g),
		D: w.in.D.Load(t, g),
	}
	if i == 0 {
		r.A = 0
	}
	if i == w.n-1 {
		r.C = 0
	}
	return r
}

// Run streams rows [outStart, outEnd) of the system through the
// window, performing the k-step reduction. After each sub-tile the
// fresh level-k rows sit in w.Out and sink is invoked with their base
// index; sink typically issues one more phase to store or consume them
// (e.g. the p-Thomas forward fusion of §III.C). Rows of Out outside
// [outStart, outEnd)∩[0, n) are pipeline warm-up garbage and must be
// ignored (see OutRange).
func (w *Window[T]) Run(outStart, outEnd int, sink func(outBase int)) {
	phases := w.InitRun(outStart, outEnd)
	for t := 0; t < phases; t++ {
		w.Advance(t, sink)
	}
}

// InitRun prepares the window for streaming rows [outStart, outEnd)
// and returns the number of sub-tile phases; callers then invoke
// Advance for t = 0..phases-1 (Run does exactly this; the split
// exists so several windows can be multiplexed phase by phase inside
// one block, the Fig. 11(c) configuration).
func (w *Window[T]) InitRun(outStart, outEnd int) (phases int) {
	if outEnd <= outStart {
		return 0
	}
	lo, hi := LoadSpan(w.k, w.c, outStart, outEnd)

	// Initialize the history caches to identity rows. For outStart == 0
	// these are the true virtual rows before the system; for an
	// interior block they are placeholders whose influence dies inside
	// the f(k) warm-up zone (dependency-cone argument, §III.A).
	histLen := len(w.hist)
	w.blk.Phase(func(t *gpusim.Thread) {
		for p := t.ID; p < histLen; p += w.threads {
			w.hist[p] = pcr.Identity[T]() // B = 1: identity row
		}
	})
	w.blk.CountShared(0, int64(histLen)*4)

	w.r0 = lo
	return (hi - lo) / w.S
}

// LoadSpan returns the raw rows [lo, hi) that a run over output rows
// [outStart, outEnd) streams through the window with sub-tile scale c,
// one sub-tile phase per S = c·2^k rows. The first raw row is far
// enough back that every output's dependency cone is loaded
// (outStart − f(k)), rounded down to a sub-tile boundary so every load
// phase starts aligned; the span runs until the pipeline lag of 2^k
// rows (f(k)+1, sub-tile aligned, see the type doc) has flushed
// outEnd. Rows outside the system are not loaded (loadRaw pads them).
// Two runs whose spans lie inside their systems, that start at the
// same distance from lo and have the same length, run the same
// schedule shifted by the distance between their outStarts.
func LoadSpan(k, c, outStart, outEnd int) (lo, hi int) {
	S := c << k
	lo = floorAlign(outStart-F(k), S)
	return lo, lo + num.CeilDiv(outEnd+(1<<k)-lo, S)*S
}

// Advance runs sub-tile phase t of a run prepared by InitRun.
func (w *Window[T]) Advance(t int, sink func(outBase int)) {
	w.subTile(w.r0+t*w.S, sink)
}

// floorAlign rounds x down to a multiple of m (correct for negative x).
func floorAlign(x, m int) int {
	q := x / m
	if x%m != 0 && x < 0 {
		q--
	}
	return q * m
}

// OutRange returns the half-open range of positions of w.Out that hold
// valid output rows for a sub-tile whose Out[0] is row outBase, given
// the run's [outStart, outEnd) and the system size.
func (w *Window[T]) OutRange(outBase, outStart, outEnd int) (lo, hi int) {
	lo, hi = 0, w.S
	if outBase < outStart {
		lo = outStart - outBase
	}
	limit := outEnd
	if w.n < limit {
		limit = w.n
	}
	if outBase+hi > limit {
		hi = limit - outBase
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// subTile advances the pipeline by one sub-tile: load S raw rows
// starting at base (sub-tile aligned), then run the k reduction levels,
// leaving the fresh level-k rows (indices base-2^k .. base-2^k+S-1,
// also sub-tile aligned for c == 1) in w.Out.
func (w *Window[T]) subTile(base int, sink func(outBase int)) {
	k, c, S := w.k, w.c, w.S

	// The hot phase bodies index local copies of the stage/hist/Out
	// slice headers: stage, hist and Out share an element type, so
	// without the locals the compiler must reload w's fields after
	// every store.

	// Load phase: stage <- hist0 (3 rows) ++ raw [base, base+S).
	// Thread t loads elements base+t, base+t+2^k, ... — unit stride
	// across the block and sub-tile aligned, hence coalesced.
	w.blk.Phase(func(t *gpusim.Thread) {
		st, hist0 := w.stage, w.hist
		for e := 0; e < c; e++ {
			i := base + t.ID + e*w.threads
			st[3+t.ID+e*w.threads] = w.loadRaw(t, i)
		}
		for p := t.ID; p < 3; p += w.threads {
			st[p] = hist0[p]
		}
	})
	w.blk.CountShared(3*4, int64(S+3)*4)

	// hist0 <- newest three raw rows, for the next sub-tile.
	w.blk.Phase(func(t *gpusim.Thread) {
		st, hist0 := w.stage, w.hist
		for p := t.ID; p < 3; p += w.threads {
			hist0[p] = st[S+p]
		}
	})
	w.blk.CountShared(3*4, 3*4)

	stageBase := base - 3 // system index of stage position 0
	for j := 1; j <= k; j++ {
		h := 1 << (j - 1)
		lo := base - F(j) - 1 // first fresh level-j index (lag f(j)+1)

		// Compute phase: each thread produces its c fresh values into
		// the register tile (3 row reads from shared, write to regs).
		w.blk.Phase(func(t *gpusim.Thread) {
			st, out := w.stage, w.Out
			for e := 0; e < c; e++ {
				p := t.ID + e*w.threads
				rel := lo + p - stageBase
				out[p] = pcr.Combine(st[rel-h], st[rel], st[rel+h])
			}
			t.Eliminations(c)
		})
		w.blk.CountShared(int64(S)*3*4, 0)

		if j == k {
			break
		}
		width := (2 << j) + 1 // level-j history size 2^(j+1)+1

		// Rebuild phase 1: stage <- hist[j] ++ fresh level-j rows.
		w.blk.Phase(func(t *gpusim.Thread) {
			st, hj, out := w.stage, w.hist[w.histOff[j]:], w.Out
			for p := t.ID; p < width+S; p += w.threads {
				if p < width {
					st[p] = hj[p]
				} else {
					st[p] = out[p-width]
				}
			}
		})
		w.blk.CountShared(int64(width)*4, int64(width+S)*4)

		// Rebuild phase 2: hist[j] <- newest `width` level-j rows, read
		// from the freshly rebuilt stage tail (for j = k-1 and c = 1
		// the history is wider than one sub-tile, so part of it comes
		// from the previous history rather than this phase's output).
		w.blk.Phase(func(t *gpusim.Thread) {
			st, hj := w.stage, w.hist[w.histOff[j]:]
			for p := t.ID; p < width; p += w.threads {
				hj[p] = st[S+p]
			}
		})
		w.blk.CountShared(int64(width)*4, int64(width)*4)

		stageBase = lo - width
	}

	if sink != nil {
		sink(base - (1 << k))
	}
}
