package gpusim

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestInjectorDeterministic(t *testing.T) {
	inj := &Injector{Seed: 42, Rate: 0.3}
	type decision struct {
		kind FaultKind
		ok   bool
	}
	var first []decision
	for trial := 0; trial < 3; trial++ {
		var got []decision
		for blk := 0; blk < 200; blk++ {
			for attempt := 0; attempt < 2; attempt++ {
				k, ok := inj.At("kern", blk, attempt)
				got = append(got, decision{k, ok})
			}
		}
		if trial == 0 {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d decision %d = %v, want %v (injector not deterministic)",
					trial, i, got[i], first[i])
			}
		}
	}
	hits := 0
	for i := 0; i < len(first); i += 2 {
		if first[i].ok {
			hits++
		}
	}
	if hits == 0 || hits == 200 {
		t.Fatalf("rate 0.3 over 200 sites faulted %d, want strictly between", hits)
	}
}

func TestInjectorSeedChangesPattern(t *testing.T) {
	a := &Injector{Seed: 1, Rate: 0.2}
	b := &Injector{Seed: 2, Rate: 0.2}
	same := true
	for blk := 0; blk < 200; blk++ {
		_, okA := a.At("kern", blk, 0)
		_, okB := b.At("kern", blk, 0)
		if okA != okB {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault patterns over 200 sites")
	}
}

func TestInjectorScheduleMatching(t *testing.T) {
	inj := &Injector{Schedule: []ScheduledFault{
		{Kernel: "pcr", Block: 3, Kind: FaultAbort},
		{Kernel: "", Block: 7, Kind: FaultHang},
	}}
	if k, ok := inj.At("pcr", 3, 0); !ok || k != FaultAbort {
		t.Errorf("At(pcr, 3, 0) = %v, %v; want abort fault", k, ok)
	}
	if _, ok := inj.At("thomas", 3, 0); ok {
		t.Error("kernel-pinned schedule entry fired for the wrong kernel")
	}
	if _, ok := inj.At("pcr", 4, 0); ok {
		t.Error("block-pinned schedule entry fired for the wrong block")
	}
	if k, ok := inj.At("anything", 7, 0); !ok || k != FaultHang {
		t.Errorf(`At("anything", 7, 0) = %v, %v; want hang (kernel wildcard)`, k, ok)
	}
}

func TestInjectorHealsAfterRepeat(t *testing.T) {
	inj := &Injector{
		Repeat:   2,
		Schedule: []ScheduledFault{{Kernel: "", Block: -1, Kind: FaultAbort}},
	}
	for attempt := 0; attempt < 2; attempt++ {
		if _, ok := inj.At("k", 0, attempt); !ok {
			t.Errorf("attempt %d did not fault, want fault (Repeat=2)", attempt)
		}
	}
	if _, ok := inj.At("k", 0, 2); ok {
		t.Error("attempt 2 still faulting, want healed after Repeat=2")
	}

	// Rate faults heal on the same clock.
	rateInj := &Injector{Seed: 9, Rate: 1}
	if _, ok := rateInj.At("k", 0, 0); !ok {
		t.Fatal("rate 1 attempt 0 did not fault")
	}
	if _, ok := rateInj.At("k", 0, 1); ok {
		t.Error("rate fault still firing on attempt 1, want healed (default Repeat 1)")
	}
}

func TestLaunchAbortFault(t *testing.T) {
	d := GTX480()
	d.Faults = &Injector{Schedule: []ScheduledFault{{Kernel: "k", Block: 2, Kind: FaultAbort}}}
	ran := make([]bool, 4)
	_, err := d.Launch("k", LaunchConfig{Grid: 4, Block: 1}, func(b *Block) {
		ran[b.ID] = true
	})
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("Launch error = %v, want *LaunchError", err)
	}
	if le.Kernel != "k" || le.Block != 2 || le.Kind != FaultAbort {
		t.Errorf("LaunchError = %+v, want kernel k block 2 abort", le)
	}
	if ran[2] {
		t.Error("aborted block executed; abort must fire before the block runs")
	}
}

func TestLaunchCorruptFaultPoisonsStores(t *testing.T) {
	d := GTX480()
	d.Faults = &Injector{
		Schedule:      []ScheduledFault{{Kernel: "k", Block: 0, Kind: FaultCorrupt}},
		CorruptStores: 2,
	}
	data := make([]float64, 64)
	g := NewGlobal(data)
	_, err := d.Launch("k", LaunchConfig{Grid: 1, Block: 32}, func(b *Block) {
		b.PhaseNoSync(func(th *Thread) {
			g.Store(th, th.ID, 1)
			g.Store(th, 32+th.ID, 1)
		})
	})
	var le *LaunchError
	if !errors.As(err, &le) || le.Kind != FaultCorrupt {
		t.Fatalf("Launch error = %v, want corrupt *LaunchError", err)
	}
	nans := 0
	for _, v := range data {
		if math.IsNaN(v) {
			nans++
		}
	}
	if nans == 0 || nans > 2 {
		t.Errorf("corrupt fault poisoned %d stores, want 1..2 (CorruptStores=2)", nans)
	}
}

func TestLaunchFaultFreeWithInjectorAttached(t *testing.T) {
	d := GTX480()
	d.Faults = &Injector{Schedule: []ScheduledFault{{Kernel: "other", Block: 0, Kind: FaultAbort}}}
	if _, err := d.Launch("k", LaunchConfig{Grid: 2, Block: 1}, func(b *Block) {}); err != nil {
		t.Fatalf("non-matching schedule faulted the launch: %v", err)
	}
}

func TestRunBlocksCtxCancellation(t *testing.T) {
	d := GTX480()
	e := NewExecutor(d)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := e.RunBlocksCtx(ctx, &Stats{}, 1, 0, 8, func(b *Block) { ran++ }, FaultSite{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBlocksCtx error = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("cancelled run executed %d blocks, want 0", ran)
	}
}

func TestRunBlocksCtxRetryAttemptHeals(t *testing.T) {
	d := GTX480()
	inj := &Injector{Schedule: []ScheduledFault{{Kernel: "k", Block: 1, Kind: FaultAbort}}}
	e := NewExecutor(d)
	site := FaultSite{Inj: inj, Kernel: "k"}
	err := e.RunBlocksCtx(nil, &Stats{}, 1, 0, 4, func(b *Block) {}, site)
	var le *LaunchError
	if !errors.As(err, &le) || le.Block != 1 {
		t.Fatalf("attempt 0 error = %v, want LaunchError at block 1", err)
	}
	site.Attempt = 1
	ran := 0
	if err := e.RunBlocksCtx(nil, &Stats{}, 1, 0, 4, func(b *Block) { ran++ }, site); err != nil {
		t.Fatalf("attempt 1 still faulting: %v (site must heal after Repeat)", err)
	}
	if ran != 4 {
		t.Errorf("healed attempt ran %d blocks, want 4", ran)
	}
}

func TestRunBlocksCorruptClearsArm(t *testing.T) {
	// After a corrupt fault is reported, the reused executor Block must
	// not keep poisoning stores on the next (fault-free) call.
	d := GTX480()
	inj := &Injector{Schedule: []ScheduledFault{{Kernel: "k", Block: 0, Kind: FaultCorrupt}}}
	e := NewExecutor(d)
	data := make([]float64, 32)
	g := NewGlobal(data)
	kern := func(b *Block) {
		b.PhaseNoSync(func(th *Thread) { g.Store(th, th.ID, 1) })
	}
	if err := e.RunBlocksCtx(nil, &Stats{}, 1, 0, 1, kern, FaultSite{Inj: inj, Kernel: "k"}); err == nil {
		t.Fatal("corrupt schedule did not fault")
	}
	if err := e.RunBlocksCtx(nil, &Stats{}, 1, 0, 1, kern, FaultSite{Inj: inj, Kernel: "k", Attempt: 1}); err != nil {
		t.Fatalf("healed attempt faulted: %v", err)
	}
	for i, v := range data {
		if math.IsNaN(v) {
			t.Fatalf("element %d still NaN after healed re-execution", i)
		}
	}
}

// TestLaunchFaultDeterministic pins Launch's fault report to the
// lowest faulted block: a rate injector faults many blocks of a wide
// grid, and however the workers interleave, every repeat of the same
// launch reports the same single LaunchError.
func TestLaunchFaultDeterministic(t *testing.T) {
	d := GTX480()
	d.Faults = &Injector{Seed: 3, Rate: 0.3}
	want := -1
	for id := 0; id < 256; id++ {
		if _, ok := d.Faults.At("k", id, 0); ok {
			want = id
			break
		}
	}
	if want < 0 {
		t.Fatal("injector faults no block; pick another seed")
	}
	data := make([]float64, 256*64)
	g := NewGlobal(data)
	kern := func(b *Block) {
		b.PhaseNoSync(func(th *Thread) {
			i := b.ID*64 + th.ID
			g.Store(th, i, g.Load(th, i)+1)
		})
	}
	for rep := 0; rep < 200; rep++ {
		_, err := d.Launch("k", LaunchConfig{Grid: 256, Block: 64}, kern)
		var le *LaunchError
		if !errors.As(err, &le) {
			t.Fatalf("repeat %d: error = %v, want *LaunchError", rep, err)
		}
		if le.Block != want || le.Kernel != "k" || le.Attempt != 0 {
			t.Fatalf("repeat %d: LaunchError = %+v, want block %d (the lowest faulted)", rep, le, want)
		}
	}
}
