package core

import (
	"context"

	"gputrid/internal/gpusim"
	"gputrid/internal/matrix"
	"gputrid/internal/tiledpcr"
)

// Sampled recording. A block's events depend only on which rows it
// touches, relative to its system's edges, and on where its accesses
// fall inside the coalescing transactions; the values never matter
// (see gpusim.Executor). Two blocks that run the same schedule, one's
// accesses the other's shifted by a whole number of transactions,
// therefore record the same Stats — paper §III.A counts loads and
// eliminations per tile on exactly this ground. So a recording groups
// each launch's blocks into equivalence classes by a pure key function
// of the block ID and the geometry, simulates one representative per
// class, and adds its Stats once for every block of the class. Stats
// are sums, SharedPerBlock and the launch shape aside, which are
// maxima, so the sampled Stats equal a full recording's field for
// field.
//
// The audit re-records through the same loop under singletons, the
// identity classing: every block is its own class and runs, so the
// audit keeps every simulated output and its panic checks the sampled
// Stats a solve published against a full recording.

// classKey names a block's equivalence class within one launch: blocks
// with equal keys record equal Stats. off is the byte offset of the
// block's first row modulo the device's TransactionBytes; pos, lead
// and span hold what else the launch's key function needs to pin the
// block's schedule.
type classKey struct {
	pos, lead, span, off int
}

// Values of classKey.pos that are not a slice index.
const (
	posInterior = -1 - iota // the block's loads never reach a system edge
	posEmpty                // the block owns no rows
)

// classOf returns block blk's class key, or ok = false when it cannot
// prove the block equivalent to any other: the block is then a class
// of its own and runs in full.
type classOf func(blk int) (key classKey, ok bool)

// singletons is the identity classing: no block is proved equivalent
// to another, so every block runs.
func singletons(int) (classKey, bool) { return classKey{}, false }

// txOffset is the byte offset of element i of an array of elem-byte
// elements modulo the transaction size tx. Two blocks whose first rows
// have equal offsets, and whose accesses are otherwise the same,
// address every array a whole number of transactions apart.
func txOffset(i, elem, tx int) int { return i * elem % tx }

// recordLaunch records launch l on exec with no injector into st: one
// representative block per class of l.class, its Stats added once per
// block of its class, or, when full, every block under singletons. A
// cancelled recording returns an error matching ErrCancelled.
func recordLaunch(ctx context.Context, exec *gpusim.Executor, st *gpusim.Stats, l *launch, full bool) error {
	classes := l.class
	if full {
		classes = singletons
	}
	*st = gpusim.Stats{Kernel: l.name, Launches: 1, Blocks: l.grid, ThreadsPerBlock: l.tpb}
	var buf [8]gpusim.Sample
	if err := exec.RunSampledCtx(ctx, st, l.tpb, sampleBlocks(buf[:0], l.grid, classes), l.kern, l.name); err != nil {
		if err := ctxErr(ctx); err != nil {
			return cancelled(err)
		}
		return err
	}
	return nil
}

// sampleBlocks appends to samples the blocks [0, grid) grouped by
// their class keys, in order of first appearance: each class's first
// block is its representative and its weight the class's block count.
func sampleBlocks(samples []gpusim.Sample, grid int, classes classOf) []gpusim.Sample {
	index := make(map[classKey]int)
	for blk := range grid {
		key, ok := classes(blk)
		if ok {
			if i, seen := index[key]; seen {
				samples[i].Weight++
				continue
			}
			index[key] = len(samples)
		}
		samples = append(samples, gpusim.Sample{Block: blk, Weight: 1})
	}
	return samples
}

// RecordFull records the pipeline's launches over b in full, every
// block simulated, as the audit re-records, and returns their Stats.
// No solve calls it: it is the hook through which tests and benchmarks
// compare and time a full recording against the sampled one a cold
// solve makes. It returns ErrPipelineBusy while a solve is in flight.
func (p *Pipeline[T]) RecordFull(b *matrix.Batch[T]) ([]gpusim.Stats, error) {
	if err := p.checkShape(b.M, b.N, p.m*p.n, b.Lower, b.Diag, b.Upper, b.RHS); err != nil {
		return nil, err
	}
	if !p.inUse.CompareAndSwap(false, true) {
		return nil, ErrPipelineBusy
	}
	defer p.inUse.Store(false)
	if p.k == 0 {
		p.rows = b
	} else {
		p.in = tiledpcr.NewArrays(b.Lower, b.Diag, b.Upper, b.RHS)
		p.bufs.X = gpusim.NewGlobal(make([]T, p.m*p.n))
	}
	st := make([]gpusim.Stats, p.nKern)
	err := p.record(st, true)
	if p.k == 0 {
		p.rows = nil
	} else {
		p.in, p.bufs.X = tiledpcr.Arrays[T]{}, gpusim.Global[T]{}
	}
	return st, err
}
