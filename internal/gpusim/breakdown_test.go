package gpusim

import (
	"strings"
	"testing"
)

func TestBreakdownTotalsMatchEstimate(t *testing.T) {
	d := GTX480()
	cases := []*Stats{
		{Launches: 1, Blocks: 1000, ThreadsPerBlock: 256, LoadTransactions: 1 << 20, Flops: 1 << 22},
		{Launches: 3, Blocks: 1, ThreadsPerBlock: 32, LoadTransactions: 1 << 18},
		{Launches: 1, Blocks: 64, ThreadsPerBlock: 128, Flops: 1 << 28},
		{Launches: 1, Blocks: 8, ThreadsPerBlock: 64, SharedLoads: 1 << 26, SharedBankConflicts: 1 << 22},
		{Launches: 5},
	}
	for i, s := range cases {
		for _, elem := range []int{4, 8} {
			bd := d.EstimateBreakdown(s, elem)
			if est := d.EstimateTime(s, elem); bd.Total != est {
				t.Errorf("case %d elem %d: breakdown total %g != estimate %g", i, elem, bd.Total, est)
			}
		}
	}
}

func TestBreakdownBoundClassification(t *testing.T) {
	d := GTX480()
	// Saturated DRAM streaming: bandwidth bound.
	bw := &Stats{Launches: 1, Blocks: 10000, ThreadsPerBlock: 256, LoadTransactions: 1 << 24}
	if got := d.EstimateBreakdown(bw, 8).Bound; got != "bandwidth" {
		t.Errorf("streaming kernel bound = %q, want bandwidth", got)
	}
	// One resident block with lots of transactions: latency bound.
	lat := &Stats{Launches: 1, Blocks: 1, ThreadsPerBlock: 64, LoadTransactions: 1 << 20}
	if got := d.EstimateBreakdown(lat, 8).Bound; got != "latency" {
		t.Errorf("single-block kernel bound = %q, want latency", got)
	}
	// Flop-heavy: compute bound.
	fl := &Stats{Launches: 1, Blocks: 10000, ThreadsPerBlock: 256, Flops: 1 << 34}
	if got := d.EstimateBreakdown(fl, 8).Bound; got != "compute" {
		t.Errorf("flop kernel bound = %q, want compute", got)
	}
	// Many launches with no work: launch bound.
	ln := &Stats{Launches: 100, Blocks: 1, ThreadsPerBlock: 32}
	if got := d.EstimateBreakdown(ln, 8).Bound; got != "launch" {
		t.Errorf("empty kernels bound = %q, want launch", got)
	}
}

func TestBreakdownString(t *testing.T) {
	d := GTX480()
	s := &Stats{Launches: 1, Blocks: 4, ThreadsPerBlock: 64, LoadTransactions: 1000}
	out := d.EstimateBreakdown(s, 8).String()
	for _, want := range []string{"total=", "bound=", "bw="} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
}
