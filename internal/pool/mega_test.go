package pool

import (
	"context"
	"testing"
	"time"
)

// TestMegaStationsIndependent pins the megabatch-station contract:
// AcquireMega leases out of its own station, built by the build hook
// with mega = true, with its own capacity, so megabatch traffic never
// competes with direct traffic for instances, and the two service-time
// estimates stay separate.
func TestMegaStationsIndependent(t *testing.T) {
	f := &fakeFactory{}
	mega := &fakeFactory{}
	build := func(m, n int, isMega bool) (*fakeSolver, error) {
		if isMega {
			return mega.build(m, n, isMega)
		}
		return f.build(m, n, isMega)
	}
	p := New(Config{Capacity: 1, QueueLimit: -1}, build, f.close, nil)
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
