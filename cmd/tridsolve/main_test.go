package main

import (
	"strings"
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

// TestFuseFlag pins -fuse to the unfused hybrid's arithmetic: at -k 4
// the fused kernel writes the same bits, and at a -k that resolves to
// 0 there is no PCR stage to fuse, so the ordinary solve runs and
// reports the same k and modeled time.
func TestFuseFlag(t *testing.T) {
	b := workload.Batch[float64](workload.DiagDominant, 3, 301, 5)
	for _, k := range []int{4, 0} {
		want, wantDetail, err := solve("hybrid", b, k, false, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, detail, err := solve("hybrid", b, k, true, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if num.Bits(got[i]) != num.Bits(want[i]) {
				t.Fatalf("k=%d: x[%d] fused %v, unfused %v", k, i, got[i], want[i])
			}
		}
		if k == 0 && detail != wantDetail {
			t.Errorf("k=0: -fuse reported %q, the ordinary solve %q", detail, wantDetail)
		}
		if k == 4 && (detail == wantDetail || !strings.HasPrefix(detail, "k=4 blocks/sys=1 ")) {
			t.Errorf("k=4: -fuse reported %q (unfused %q), want the fused kernel's k=4, one block per system", detail, wantDetail)
		}
	}
}
