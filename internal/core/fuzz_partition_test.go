package core

import (
	"context"
	"math"
	"testing"

	"gputrid/internal/gpusim"
	"gputrid/internal/workload"
)

// FuzzPartitioner drives the partitioner and the distributed solve
// with arbitrary (N, device count, batch size M, slab sizes):
// construction must never index out of bounds (the harness itself
// would panic), every accepted partition must validate structurally,
// and the multi-device distributed solve must match the single-device
// run of the same partition bitwise — the assignment-invariance
// contract device-death migration relies on. devs carries both the
// device count (its low two bits) and M ∈ {1, …, 4} (the next two,
// offset so that the seeds below 4 keep M = 2), so the audited slab
// kernel sees every mapping of batch system to u, v and w system.
func FuzzPartitioner(f *testing.F) {
	f.Add(uint16(64), uint8(3), uint8(0), []byte{})
	f.Add(uint16(7), uint8(4), uint8(1), []byte{1, 1, 1, 1})
	f.Add(uint16(97), uint8(2), uint8(5), []byte{40, 6})
	f.Add(uint16(3), uint8(1), uint8(2), []byte{0})
	f.Add(uint16(0), uint8(0), uint8(0), []byte{255, 255})
	f.Add(uint16(257), uint8(3|3<<2), uint8(3), []byte{}) // M = 1, 4 devices: dist-huge's shape
	f.Add(uint16(131), uint8(2|2<<2), uint8(4), []byte{}) // M = 4
	f.Fuzz(func(t *testing.T, n16 uint16, devs, slabs uint8, sizeBytes []byte) {
		n := int(n16)

		// Explicit sizes: whatever the fuzzer says, shifted to [1, 64].
		// Mis-summing size vectors exercise the rejection path.
		sizes := make([]int, 0, len(sizeBytes))
		for _, sb := range sizeBytes {
			sizes = append(sizes, int(sb%64)+1)
		}
		if p, err := PartitionSizes(n, sizes); err == nil {
			if verr := p.Validate(); verr != nil {
				t.Fatalf("PartitionSizes(%d, %v) accepted invalid partition: %v", n, sizes, verr)
			}
		}

		D := int(slabs%8) + 1
		p, err := NewPartition(n, D)
		if err != nil {
			return // structurally impossible (n < 2D-1): nothing to solve
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("NewPartition(%d, %d) invalid: %v", n, D, verr)
		}

		// Keep the solve tractable: the partitioner above took
		// arbitrary n, but the solve fuzz only needs modest shapes.
		if n > 512 {
			return
		}
		nd := int(devs%4) + 1
		topo, err := gpusim.UniformTopology(nd, gpusim.NVLinkMesh(), gpusim.GTX480())
		if err != nil {
			t.Fatal(err)
		}
		m := int(devs>>2+1)%4 + 1
		s, err := NewDistSolver[float64](DistConfig{Topology: topo, Slabs: D}, m, n)
		if err != nil {
			t.Fatalf("solver rejected valid partition (n=%d D=%d): %v", n, D, err)
		}
		defer s.Close()
		b := workload.Batch[float64](workload.DiagDominant, m, n, uint64(n16)^uint64(devs)<<8)

		multi := make([]float64, m*n)
		if _, err := s.SolveInto(context.Background(), multi, b); err != nil {
			t.Fatalf("multi-device solve (n=%d D=%d devs=%d M=%d): %v", n, D, nd, m, err)
		}
		single := make([]float64, m*n)
		if _, err := s.SolveOn(context.Background(), single, b, []int{0}); err != nil {
			t.Fatalf("single-device solve: %v", err)
		}
		for i := range multi {
			if multi[i] != single[i] {
				t.Fatalf("n=%d D=%d devs=%d M=%d: element %d differs bitwise: %x vs %x",
					n, D, nd, m, i, math.Float64bits(multi[i]), math.Float64bits(single[i]))
			}
		}
	})
}
