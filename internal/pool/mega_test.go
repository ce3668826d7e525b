package pool

import (
	"context"
	"testing"
	"time"
)

// TestMegaStationsIndependent pins the megabatch-station contract:
// AcquireMega leases out of its own station with its own builder and
// capacity, so megabatch traffic never competes with direct traffic
// for instances, and the two service-time estimates stay separate.
func TestMegaStationsIndependent(t *testing.T) {
	f := &fakeFactory{}
	mega := &fakeFactory{}
	p := newTestPool(Config{Capacity: 1, QueueLimit: -1}, f, 0)
	p.MegaBuild(mega.build)
	ctx := context.Background()

	// Exhaust the regular station; the mega station must still admit.
	ld, err := p.Acquire(ctx, 64, 128)
	if err != nil {
		t.Fatalf("direct acquire: %v", err)
	}
	lm, err := p.AcquireMega(ctx, 64, 128)
	if err != nil {
		t.Fatalf("mega acquire with direct station exhausted: %v", err)
	}
	if fb, _ := f.counts(); fb != 1 {
		t.Fatalf("regular builder built %d, want 1", fb)
	}
	if mb, _ := mega.counts(); mb != 1 {
		t.Fatalf("mega builder built %d, want 1", mb)
	}

	// Same-shape second mega acquire bounces off the mega station's
	// own capacity (QueueLimit<0 = no queueing).
	if _, err := p.AcquireMega(ctx, 64, 128); err == nil {
		t.Fatal("second mega acquire should overload its own station")
	}

	// EWMAs are independent.
	ld.Release(10 * time.Millisecond)
	lm.Release(70 * time.Millisecond)

	// Stats name both stations and tell them apart.
	st := p.Stats()
	if st.Shapes != 2 {
		t.Fatalf("Shapes = %d, want 2 stations for one shape", st.Shapes)
	}
	var sawMega, sawDirect bool
	for _, sh := range st.PerShape {
		if sh.M != 64 || sh.N != 128 {
			t.Fatalf("unexpected shape %dx%d", sh.M, sh.N)
		}
		want := 10 * time.Millisecond
		if sh.Mega {
			sawMega, want = true, 70*time.Millisecond
		} else {
			sawDirect = true
		}
		if sh.ServiceTime != want {
			t.Fatalf("mega=%v service time = %v, want %v", sh.Mega, sh.ServiceTime, want)
		}
	}
	if !sawMega || !sawDirect {
		t.Fatalf("PerShape missing a station kind: mega=%v direct=%v", sawMega, sawDirect)
	}

	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The close hook is pool-wide — only construction differs per
	// station — so teardown closes both solvers through it.
	if _, fc := f.counts(); fc != 2 {
		t.Fatalf("close count = %d, want both stations' solvers (2)", fc)
	}
}

// TestMegaWarmFallsBackToBuild pins the nil-hook default: without
// MegaBuild, AcquireMega builds its station's solver through the
// regular hook.
func TestMegaWarmFallsBackToBuild(t *testing.T) {
	f := &fakeFactory{}
	p := newTestPool(Config{Capacity: 2}, f, 0)
	l, err := p.AcquireMega(context.Background(), 8, 64)
	if err != nil {
		t.Fatalf("AcquireMega: %v", err)
	}
	if fb, _ := f.counts(); fb != 1 {
		t.Fatalf("built %d, want 1 through the regular hook", fb)
	}
	l.Release(time.Millisecond)
	_ = p.Close(context.Background())
}
