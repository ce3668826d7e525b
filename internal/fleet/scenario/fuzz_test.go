package scenario

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzScenarioDecode: a scenario file is untrusted input (tridserve
// -scenario). Decode must never panic, and a scenario it accepts must
// ask the runner for no more than the bounds allow: the serving and
// distributed shapes, variants, solves and pool sizes, and — replaying
// the runner's own load arithmetic tick by tick — the requests any one
// tick starts. Seeded from the canned scenarios and one at the bounds.
func FuzzScenarioDecode(f *testing.F) {
	files, err := filepath.Glob("testdata/*.yaml")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed scenarios: %v", err)
	}
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A scenario at the load and shape bounds, one digit from over them.
	f.Add([]byte("tick: 1s\nshape: {m: 64, n: 1024}\nload:\n  - {rps: 600}\n  - {from: 2s, rps: 400}\ndistributed:\n  m: 2\n  n: 131072\n"))
	// Out-of-range probabilities, each one edit from a valid scenario.
	for _, bad := range []string{"faults:\n  rate: NaN", "faults:\n  rate: -3", "faults:\n  rate: 7",
		"assert:\n  max_rejected_frac: NaN", "assert:\n  max_rejected_frac: -0.5"} {
		f.Add([]byte("load:\n  - {rps: 1}\n" + bad + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Decode(data)
		if err != nil {
			return
		}
		if sc.M*sc.N > maxShapeElems || sc.Variants > maxVariants || sc.Capacity > maxCapacity || sc.Queue > maxQueue {
			t.Fatalf("accepted shape %dx%d, %d variants, capacity %d, queue %d", sc.M, sc.N, sc.Variants, sc.Capacity, sc.Queue)
		}
		if !(sc.FaultRate >= 0 && sc.FaultRate <= 1) || !(sc.Assert.MaxRejectedFrac >= 0 && sc.Assert.MaxRejectedFrac <= 1) {
			t.Fatalf("accepted faults.rate %v, max_rejected_frac %v", sc.FaultRate, sc.Assert.MaxRejectedFrac)
		}
		if ds := sc.Distributed; ds != nil && (ds.M*ds.N > maxDistElems || ds.count() > maxDistCount) {
			t.Fatalf("accepted distributed shape %dx%d, %d solves", ds.M, ds.N, ds.count())
		}
		var carry float64
		for tick := 0; tick < int(sc.Duration/sc.Tick); tick++ {
			now := sc.Tick * time.Duration(tick)
			for _, ph := range sc.Load {
				if now >= ph.From && now < ph.To {
					carry += ph.RPS * sc.Tick.Seconds()
				}
			}
			n := int(carry)
			carry -= float64(n)
			if n < 0 || n > maxRequestsPerTick {
				t.Fatalf("tick %d starts %d requests, want 0..%d", tick, n, maxRequestsPerTick)
			}
		}
	})
}
