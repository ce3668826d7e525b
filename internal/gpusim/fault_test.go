package gpusim

import (
	"context"
	"errors"
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
	for id, r := range ran {
		if r {
			t.Errorf("block %d executed; a faulted launch must run no block", id)
		}
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
	err := e.RunBlocksCtx(ctx, &Stats{}, 1, 0, 8, func(b *Block) { ran++ }, "k")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBlocksCtx error = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("cancelled run executed %d blocks, want 0", ran)
	}
}

// TestRunBlocksCtxRetryAttemptHeals checks the retry clock of the one
// place faults are decided: FaultSite.First reports the scheduled block
// on attempt 0, nothing on attempt 1 (the default Repeat of 1), and
// nothing for a range that excludes the block. The executor, which
// never consults an injector, runs every block of the healed attempt.
func TestRunBlocksCtxRetryAttemptHeals(t *testing.T) {
	d := GTX480()
	inj := &Injector{Schedule: []ScheduledFault{{Kernel: "k", Block: 1, Kind: FaultAbort}}}
	site := FaultSite{Inj: inj, Kernel: "k"}
	want := LaunchError{Kernel: "k", Block: 1, Kind: FaultAbort}
	if le := site.First(0, 4); le == nil || *le != want {
		t.Fatalf("attempt 0 First(0, 4) = %+v, want %+v", le, want)
	}
	if le := site.First(2, 2); le != nil {
		t.Fatalf("First(2, 2) = %+v, want nil (block 1 is outside the range)", le)
	}
	site.Attempt = 1
	if le := site.First(0, 4); le != nil {
		t.Fatalf("attempt 1 still faulting: %+v (site must heal after Repeat)", le)
	}
	ran := 0
	if err := NewExecutor(d).RunBlocksCtx(nil, &Stats{}, 1, 0, 4, func(b *Block) { ran++ }, "k"); err != nil {
		t.Fatal(err)
	}
	if ran != 4 {
		t.Errorf("healed attempt ran %d blocks, want 4", ran)
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
