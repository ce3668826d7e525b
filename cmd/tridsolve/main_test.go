package main

import (
	"testing"

	"gputrid"
	"gputrid/internal/num"
	"gputrid/internal/workload"
)

// TestReferenceMatchesHybrid pins -algo reference to the hybrid's
// arithmetic: at the same -k, auto included, both write the same bits.
func TestReferenceMatchesHybrid(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 3, 301, 5)
	for _, k := range []int{0, 3, gputrid.AutoK} {
		want, _, err := solve("hybrid", b, k, false, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := solve("reference", b, k, false, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if num.Bits(got[i]) != num.Bits(want[i]) {
				t.Fatalf("k=%d: x[%d] reference %v, hybrid %v", k, i, got[i], want[i])
			}
		}
	}
}
