package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
	"gputrid/internal/pthomas"
	"gputrid/internal/workload"
)

// rhsShape rewrites a batch's right-hand sides into the shapes whose
// zeros make the sign of zero visible, as the distributed coupling
// planes do: all zero, or one nonzero entry per system.
func rhsShape[T num.Real](b *matrix.Batch[T], shape string) {
	switch shape {
	case "zero":
		clear(b.RHS)
	case "first-row":
		clear(b.RHS)
		for i := 0; i < b.M; i++ {
			b.RHS[i*b.N] = -b.Lower[i*b.N+1]
		}
	case "last-row":
		clear(b.RHS)
		for i := 0; i < b.M; i++ {
			b.RHS[(i+1)*b.N-1] = 0.25
		}
	}
}

// auditShapes are the pipeline geometries the twin audit covers: the
// k = 0 kernel over several thread blocks, and k >= 1 with one and
// with several blocks per system, each on several workers.
var auditShapes = []struct {
	name string
	cfg  Config
	m, n int
}{
	{"k0", Config{K: 0, Workers: 3}, 320, 64},
	{"k5-one-block", Config{K: 5, Workers: 3}, 7, 200},
	{"k3-three-blocks", Config{K: 3, BlocksPerSystem: 3, Workers: 2}, 5, 301},
	{"kauto", Config{K: KAuto, Workers: 2}, 16, 1024},
}

// auditPipeline solves b twice on a fresh pipeline through the entry
// named by entry and requires the audit to have run and both solves to
// agree bit for bit with the one-shot Solve. The one-shot Solve of a
// geometry's first case records; every pipeline solve after it takes
// its Stats from the recording memo and runs the host twins, which the
// audit checks against a re-recording — Stats and outputs alike.
func auditPipeline[T num.Real](t *testing.T, cfg Config, b *matrix.Batch[T], entry string) {
	t.Helper()
	p, err := NewPipeline[T](cfg, b.M, b.N)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want, _, err := Solve(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	v := b.ToInterleaved()
	for solve := 0; solve < 2; solve++ {
		got := make([]T, b.M*b.N)
		if entry == "interleaved" {
			xi := make([]T, b.M*b.N)
			err = p.SolveInterleavedInto(xi, v)
			matrix.DeinterleaveVectorInto(got, xi, b.M, b.N)
		} else {
			err = p.SolveInto(got, b)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(want, got); i >= 0 {
			t.Fatalf("solve %d: x[%d] = %#x, one-shot Solve %#x", solve, i, num.Bits(got[i]), num.Bits(want[i]))
		}
	}
	if len(p.drv.sim) == 0 {
		t.Fatal("the replay did not run the audited host twins")
	}
}

// TestHostTwinAuditPipeline runs the differential audit over every
// pipeline geometry, both entries, both precisions and the zero-heavy
// right-hand sides. The audit itself panics on a difference; the test
// makes sure each case reached it.
func TestHostTwinAuditPipeline(t *testing.T) {
	for _, sh := range auditShapes {
		for _, rhs := range []string{"random", "zero", "first-row", "last-row"} {
			for _, entry := range []string{"contiguous", "interleaved"} {
				t.Run(sh.name+"/"+rhs+"/"+entry, func(t *testing.T) {
					seed := uint64(sh.m*sh.n + len(rhs))
					b64 := workload.Batch[float64](workload.DiagDominant, sh.m, sh.n, seed)
					rhsShape(b64, rhs)
					auditPipeline(t, sh.cfg, b64, entry)
					b32 := workload.Batch[float32](workload.Toeplitz, sh.m, sh.n, seed)
					rhsShape(b32, rhs)
					auditPipeline(t, sh.cfg, b32, entry)
				})
			}
		}
	}
}

// TestHostTwinAuditDistributed audits the distributed solver's warm
// path: every slab kernel (whose coupling planes are the zero and
// single-nonzero right-hand sides) and every back-substitution.
func TestHostTwinAuditDistributed(t *testing.T) {
	const m, n = 3, 1025
	b := workload.Batch[float64](workload.DiagDominant, m, n, 77)
	s, err := NewDistSolver[float64](DistConfig{Topology: distTopo(t, 3, gpusim.NVLinkMesh()), Slabs: 4}, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := make([]float64, m*n)
	if _, err := s.SolveInto(context.Background(), want, b); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, m*n)
	if _, err := s.SolveInto(context.Background(), got, b); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(want, got); i >= 0 {
		t.Fatalf("warm x[%d] = %#x, recording solve %#x", i, num.Bits(got[i]), num.Bits(want[i]))
	}
	for key, k := range s.reducers {
		if len(k.drv.sim) == 0 {
			t.Errorf("slab kernel %+v replayed without the audit", key)
		}
	}
	for key, k := range s.backsubs {
		if len(k.drv.sim) == 0 {
			t.Errorf("back-substitution %+v replayed without the audit", key)
		}
	}
}

// TestAuditCatchesUnwrittenOutput pins that the audit fails a twin
// that leaves an output unwritten. The full recording writes the same
// planes the twins do, so without the unwritten mark a skipped output
// would keep the simulated value and compare equal. Run by the driver
// over a recorded k = 0 interleaved pipeline, the twin with the last
// system of every worker range dropped must panic with "unwritten";
// the whole twin must pass. At k >= 1, on a fresh geometry with the
// memo emptied, a twin that solves every system but reduces one into
// the worker's own rows, leaving that system's rows of the reduced
// planes unwritten, must panic the same way on the pipeline's first,
// recording solve: only a recording builds those planes, and the audit
// still compares them.
func TestAuditCatchesUnwrittenOutput(t *testing.T) {
	audit := func(p *Pipeline[float64], twin func()) (panicked any) {
		defer func() { panicked = recover() }()
		_ = p.drv.run(nil, func() (bool, error) {
			twin()
			return false, nil
		})
		return nil
	}
	t.Run("k0-interleaved", func(t *testing.T) {
		const m, n = 300, 48
		p, err := NewPipeline[float64](Config{K: 0, Workers: 3}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		v := workload.Batch[float64](workload.DiagDominant, m, n, 6).ToInterleaved()
		xi := make([]float64, m*n)
		if err := p.SolveInterleavedInto(xi, v); err != nil {
			t.Fatal(err)
		}
		p.iv, p.x = v, xi
		twin := func(drop int) func() {
			return func() {
				for _, w := range p.workers {
					lo, hi := p.systems(w)
					pthomas.SolveInterleavedRangeInto(p.iv, xi, p.cp, lo, hi-drop)
				}
			}
		}
		if got := audit(p, twin(0)); got != nil {
			t.Fatalf("the whole twin: audit panicked: %v", got)
		}
		if got := audit(p, twin(1)); !strings.Contains(fmt.Sprint(got), "unwritten") {
			t.Fatalf("a twin that drops the last system of each worker range: audit panicked with %v, want an unwritten output", got)
		}
	})
	t.Run("k3-contiguous-first-solve", func(t *testing.T) {
		const m, n, skip = 5, 96, 2
		recs := countRecordings(t, m, n)
		p, err := NewPipeline[float64](Config{K: 3, Workers: 2}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		b := workload.Batch[float64](workload.DiagDominant, m, n, 6)
		dst := make([]float64, m*n)
		p.bindBatch(b, dst)
		got := audit(p, func() {
			for _, w := range p.workers {
				for i, hi := p.systems(w); i < hi; i++ {
					s, e := i*n, (i+1)*n
					r := w.tw.r
					if i != skip {
						r = [4][]float64{p.planes[0][s:e], p.planes[1][s:e], p.planes[2][s:e], p.planes[3][s:e]}
					}
					w.tw.solve(b.Lower[s:e], b.Diag[s:e], b.Upper[s:e], b.RHS[s:e], dst[s:e], r, false)
				}
			}
		})
		if recorded := recs.Load(); recorded != 1 {
			t.Fatalf("the audited run made %d recordings, want 1: it must be the pipeline's first, recording solve", recorded)
		}
		if !strings.Contains(fmt.Sprint(got), "unwritten") {
			t.Fatalf("a twin that leaves system %d's reduced rows unwritten: audit panicked with %v, want an unwritten output", skip, got)
		}
	})
}

// TestFirstSolveRunsTwins pins that recording only measures: with the
// memo emptied, the very first solve of a k >= 1 contiguous pipeline,
// of a k = 0 interleaved one and of every distributed back-substitution
// runs the audited host twins, and its answer is theirs.
func TestFirstSolveRunsTwins(t *testing.T) {
	t.Run("k3-contiguous", func(t *testing.T) {
		const m, n = 6, 257
		recs := countRecordings(t, m, n)
		p, err := NewPipeline[float64](Config{K: 3, Workers: 2}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		b := workload.Batch[float64](workload.DiagDominant, m, n, 3)
		x := make([]float64, m*n)
		if err := p.SolveInto(x, b); err != nil {
			t.Fatal(err)
		}
		if recs.Load() != 1 || len(p.drv.sim) == 0 {
			t.Fatalf("first solve: %d recordings, audited twins ran %v; want 1, true", recs.Load(), len(p.drv.sim) > 0)
		}
		if i := firstDiff(SolveReference(b, 3), x); i >= 0 {
			t.Fatalf("x[%d] differs from SolveReference", i)
		}
	})
	t.Run("k0-interleaved", func(t *testing.T) {
		const m, n = 300, 48
		recs := countRecordings(t, m, n)
		p, err := NewPipeline[float64](Config{K: 0, Workers: 3}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		b := workload.Batch[float64](workload.DiagDominant, m, n, 4)
		xi := make([]float64, m*n)
		if err := p.SolveInterleavedInto(xi, b.ToInterleaved()); err != nil {
			t.Fatal(err)
		}
		if recs.Load() != 1 || len(p.drv.sim) == 0 {
			t.Fatalf("first solve: %d recordings, audited twins ran %v; want 1, true", recs.Load(), len(p.drv.sim) > 0)
		}
		if i := firstDiff(SolveReference(b, 0), matrix.DeinterleaveVector(xi, m, n)); i >= 0 {
			t.Fatalf("x[%d] differs from SolveReference", i)
		}
	})
	t.Run("distBacksub", func(t *testing.T) {
		const m, n = 3, 1025
		ResetRecordMemo()
		s, err := NewDistSolver[float64](DistConfig{Topology: distTopo(t, 3, gpusim.NVLinkMesh()), Slabs: 4}, m, n)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		b := workload.Batch[float64](workload.DiagDominant, m, n, 5)
		if _, err := s.SolveInto(context.Background(), make([]float64, m*n), b); err != nil {
			t.Fatal(err)
		}
		if len(s.backsubs) == 0 {
			t.Fatal("no back-substitution ran")
		}
		for key, k := range s.backsubs {
			if len(k.drv.sim) == 0 {
				t.Errorf("back-substitution %+v: its first run skipped the audited twin", key)
			}
		}
	})
}

// countdownCtx is a context whose Err turns to context.Canceled after
// a fixed number of calls, cancelling a solve deterministically between
// two systems of the host twins.
type countdownCtx struct {
	context.Context
	left atomic.Int64
	done chan struct{}
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(calls)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestHostTwinCancelMidSolve cancels a host replay between systems. The
// error must match ErrCancelled and the context's error; dst must hold
// whole systems only — each either fully solved or untouched — and on
// the k = 0 path be untouched entirely; and the pipeline must stay
// reusable, its next solve bitwise clean. The audit is off here: it
// would re-record first, writing every system.
func TestHostTwinCancelMidSolve(t *testing.T) {
	auditTwin = false
	defer func() { auditTwin = true }()
	const sentinel = -7.0
	for _, sh := range auditShapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := sh.cfg
			cfg.Workers = 1 // one lane: the countdown fixes how many systems run
			p, err := NewPipeline[float64](cfg, sh.m, sh.n)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			b := workload.Batch[float64](workload.DiagDominant, sh.m, sh.n, 19)
			want := make([]float64, sh.m*sh.n)
			if err := p.SolveInto(want, b); err != nil { // records
				t.Fatal(err)
			}
			dst := make([]float64, sh.m*sh.n)
			for i := range dst {
				dst[i] = sentinel
			}
			// One Err call admits the solve; then one per system.
			const solved = 3
			ctx := newCountdownCtx(1 + solved)
			err = p.SolveIntoCtx(ctx, dst, b)
			if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want ErrCancelled matching context.Canceled", err)
			}
			written := 0
			for i := 0; i < sh.m; i++ {
				row := dst[i*sh.n : (i+1)*sh.n]
				switch {
				case firstDiff(want[i*sh.n:(i+1)*sh.n], row) < 0:
					written++
				case allEqual(row, sentinel):
				default:
					t.Fatalf("system %d is partly written by the cancelled solve", i)
				}
			}
			wantWritten := solved
			if p.K() == 0 {
				wantWritten = 0 // dst is written in one final pass
			}
			if written != wantWritten {
				t.Fatalf("cancelled solve wrote %d whole systems, want %d (k=%d)", written, wantWritten, p.K())
			}
			if err := p.SolveInto(dst, b); err != nil {
				t.Fatalf("solve after cancellation: %v", err)
			}
			if i := firstDiff(want, dst); i >= 0 {
				t.Fatalf("solve after cancellation: x[%d] = %#x, want %#x", i, num.Bits(dst[i]), num.Bits(want[i]))
			}
		})
	}
}

func allEqual(xs []float64, v float64) bool {
	for _, x := range xs {
		if x != v {
			return false
		}
	}
	return true
}
