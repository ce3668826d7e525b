package core

import (
	"testing"

	"gputrid/internal/gpusim"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

// FuzzSampledRecording draws a pipeline geometry (M, N, k, c, blocks
// per system), a precision, a device — GTX480's 128-byte transactions
// or GTX280's 64-byte ones — and a distBacksub slab (systems, rows).
// It requires the Stats a cold solve publishes, recorded one block per
// equivalence class, to equal the identity-classed recording that
// simulates every block, field for field; and the same of the
// back-substitution kernel. A geometry whose recording fails must fail
// the same way in full.
func FuzzSampledRecording(f *testing.F) {
	add := func(m, n, k int, cfg Config, f32, gtx280 bool, sys, rows int) {
		f.Add(uint16(m-1), uint16(n-1), int8(k+1), uint8(cfg.C), uint8(cfg.BlocksPerSystem), f32, gtx280, uint8(sys-1), uint16(rows-1))
	}
	// N = 1001 at k = 2: rows fall across 128-byte transactions
	// differently from one system to the next. 17 systems of 145 rows:
	// the block that crosses from system 15 to 16 loads separators in
	// two transactions.
	add(1, 1001, 2, Config{}, false, false, 17, 145)
	add(5, 1001, 2, Config{}, false, false, 5, 1001)
	add(5, 1001, 2, Config{BlocksPerSystem: 3}, true, true, 3, 1000)
	// Four equal slices per system: only the last one's loads run past
	// its system's end.
	add(2, 1024, 3, Config{BlocksPerSystem: 4}, false, false, 2, 1024)
	for _, sh := range auditShapes {
		add(sh.m, sh.n, sh.cfg.K, sh.cfg, false, false, sh.m, sh.n)
	}
	// adi-step's grid, one tiled-PCR block per system.
	add(192, 192, KAuto, Config{}, false, false, 3, 2999)
	add(192, 192, KAuto, Config{}, true, true, 4, 65)
	f.Fuzz(func(t *testing.T, m16, n16 uint16, k8 int8, c8, g8 uint8, f32, gtx280 bool, sys8 uint8, rows16 uint16) {
		m := int(m16%400) + 1
		n := int(n16%1100) + 1
		k := int(k8%10+10)%10 - 1 // KAuto..8
		dev := gpusim.GTX480()
		if gtx280 {
			dev = gpusim.GTX280()
		}
		cfg := Config{Device: dev, K: k, C: int(c8 % 5), BlocksPerSystem: int(g8 % 5), Workers: 1}
		sys, rows := int(sys8%64)+1, int(rows16%3000)+1
		if f32 {
			sampledEqualsFull[float32](t, cfg, m, n, sys, rows)
		} else {
			sampledEqualsFull[float64](t, cfg, m, n, sys, rows)
		}
	})
}

// sampledEqualsFull is one FuzzSampledRecording case. The audit, whose
// panic makes the same comparison, is off so the case reports it.
func sampledEqualsFull[T num.Real](t *testing.T, cfg Config, m, n, sys, rows int) {
	t.Helper()
	auditTwin = false
	defer func() { auditTwin = true }()
	b := workload.Batch[T](workload.DiagDominant, m, n, uint64(m*n))
	ResetRecordMemo()
	p, err := NewPipeline[T](cfg, m, n)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	solveErr := p.SolveInto(make([]T, m*n), b)
	full, err := p.RecordFull(b)
	if solveErr != nil || err != nil {
		if solveErr == nil || err == nil || solveErr.Error() != err.Error() {
			t.Fatalf("%+v %dx%d: sampled recording error %v, full recording error %v", cfg, m, n, solveErr, err)
		}
		return
	}
	for i := range full {
		if *p.Report().Kernels[i] != full[i] {
			t.Fatalf("%+v %dx%d k=%d: sampled recording\n%+v\nfull recording\n%+v", cfg, m, n, p.K(), *p.Report().Kernels[i], full[i])
		}
	}

	total := sys * rows
	k := newBacksubKernel[T](cfg.Device)
	a := &backsubArgs[T]{
		u: gpusim.NewGlobal(make([]T, total)), v: gpusim.NewGlobal(make([]T, total)),
		w: gpusim.NewGlobal(make([]T, total)), out: gpusim.NewGlobal(make([]T, total)),
		xl: gpusim.NewGlobal(make([]T, sys)), xr: gpusim.NewGlobal(make([]T, sys)),
		total: total, rows: rows,
	}
	var sampled, all gpusim.Stats
	if err := k.record(nil, a, &sampled, false); err != nil {
		t.Fatal(err)
	}
	if err := k.record(nil, a, &all, true); err != nil {
		t.Fatal(err)
	}
	if sampled != all {
		t.Fatalf("distBacksub %d systems x %d rows on %s: sampled recording\n%+v\nfull recording\n%+v", sys, rows, cfg.Device.Name, sampled, all)
	}
}

// TestSampledRecordingSamples pins how few blocks sampling simulates
// where every block is alike: adi-step's 192x192 grid and the 64x1024
// reuse shape each run one tiled-PCR and one p-Thomas block in place
// of 192 or 64 of each. A 3-system distBacksub slab runs one block per
// system, plus, at 32 767 rows per system, its two blocks that cross a
// system boundary and its short tail block.
func TestSampledRecordingSamples(t *testing.T) {
	for _, sh := range []struct{ m, n int }{{192, 192}, {64, 1024}} {
		p, err := NewPipeline[float64](Config{K: KAuto}, sh.m, sh.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range p.launches[:p.nKern] {
			if got := sampleBlocks(nil, l.grid, l.class); len(got) != 1 || got[0].Weight != l.grid {
				t.Errorf("%dx%d %s: samples %v, want one of weight %d", sh.m, sh.n, l.name, got, l.grid)
			}
		}
		p.Close()
	}
	k := newBacksubKernel[float64](gpusim.GTX480())
	k.args = &backsubArgs[float64]{total: 3 * 32768, rows: 32768}
	if got := sampleBlocks(nil, k.args.total/backsubThreads, k.class); len(got) != 3 {
		t.Errorf("distBacksub 3x32768: %d samples %v, want 3", len(got), got)
	}
	k.args = &backsubArgs[float64]{total: 3 * 32767, rows: 32767}
	if got := sampleBlocks(nil, num.CeilDiv(k.args.total, backsubThreads), k.class); len(got) != 6 {
		t.Errorf("distBacksub 3x32767: %d samples %v, want 6", len(got), got)
	}
}
