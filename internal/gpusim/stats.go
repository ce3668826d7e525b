package gpusim

import "fmt"

// Stats aggregates the architectural events recorded while executing
// one or more kernel launches. All counts are totals across the grid.
type Stats struct {
	Kernel string

	Launches        int
	Blocks          int
	ThreadsPerBlock int
	SharedPerBlock  int // max shared bytes allocated by any block

	// Global memory, after warp coalescing.
	LoadTransactions  int64
	StoreTransactions int64
	LoadedBytes       int64 // useful (requested) bytes
	StoredBytes       int64

	// Shared memory.
	SharedLoads         int64
	SharedStores        int64
	SharedBankConflicts int64 // extra serialization cycles from bank conflicts

	// Work.
	Eliminations int64 // elimination steps, the paper's cost unit
	Flops        int64
	Barriers     int64 // block-wide barriers, summed over blocks
	Phases       int64
}

// Add accumulates o into s. Launch-shape fields (Blocks,
// ThreadsPerBlock, SharedPerBlock) take the maximum so that a fused
// multi-launch Stats still reports a meaningful occupancy shape.
func (s *Stats) Add(o *Stats) {
	if s.Kernel == "" {
		s.Kernel = o.Kernel
	} else if o.Kernel != "" && s.Kernel != o.Kernel {
		s.Kernel = s.Kernel + "+" + o.Kernel
	}
	s.Accumulate(o)
}

// Accumulate is Add without the kernel-name bookkeeping: it sums the
// event counters and takes the maximum of the launch-shape fields,
// leaving s.Kernel untouched. Steady-state pipelines use it to merge
// per-shard fragments into a pre-named Stats without the string
// concatenation Add performs. It is AccumulateN with n = 1.
func (s *Stats) Accumulate(o *Stats) { s.AccumulateN(o, 1) }

// AccumulateN accumulates n copies of o into s: every event counter
// grows by n times o's, while the launch-shape fields (Blocks,
// ThreadsPerBlock, SharedPerBlock) take the maximum, as n Accumulate
// calls would. A sampled recording adds one representative block's
// events for every block of its equivalence class this way.
func (s *Stats) AccumulateN(o *Stats, n int) {
	w := int64(n)
	s.Launches += n * o.Launches
	s.Blocks = max(s.Blocks, o.Blocks)
	s.ThreadsPerBlock = max(s.ThreadsPerBlock, o.ThreadsPerBlock)
	s.SharedPerBlock = max(s.SharedPerBlock, o.SharedPerBlock)
	s.LoadTransactions += w * o.LoadTransactions
	s.StoreTransactions += w * o.StoreTransactions
	s.LoadedBytes += w * o.LoadedBytes
	s.StoredBytes += w * o.StoredBytes
	s.SharedLoads += w * o.SharedLoads
	s.SharedStores += w * o.SharedStores
	s.SharedBankConflicts += w * o.SharedBankConflicts
	s.Eliminations += w * o.Eliminations
	s.Flops += w * o.Flops
	s.Barriers += w * o.Barriers
	s.Phases += w * o.Phases
}

// Transactions returns total global transactions (loads + stores).
func (s *Stats) Transactions() int64 {
	return s.LoadTransactions + s.StoreTransactions
}

// TransactionBytes returns the total bytes moved over the DRAM bus for
// the given transaction granularity.
func (s *Stats) TransactionBytes(granularity int) int64 {
	return s.Transactions() * int64(granularity)
}

// LoadEfficiency returns usefulBytes/busBytes for loads in [0,1]; 1
// means perfectly coalesced unit-stride access.
func (s *Stats) LoadEfficiency(granularity int) float64 {
	bus := s.LoadTransactions * int64(granularity)
	if bus == 0 {
		return 1
	}
	return float64(s.LoadedBytes) / float64(bus)
}

// String summarizes the stats for logs and the bench harness.
func (s *Stats) String() string {
	return fmt.Sprintf(
		"%s: launches=%d blocks=%d tpb=%d smem=%dB ldTx=%d stTx=%d elim=%d flops=%d barriers=%d",
		s.Kernel, s.Launches, s.Blocks, s.ThreadsPerBlock, s.SharedPerBlock,
		s.LoadTransactions, s.StoreTransactions, s.Eliminations, s.Flops, s.Barriers)
}
