package core

import (
	"context"
	"sync"

	"gputrid/internal/gpusim"
)

// The recording memo. A launch's recorded Stats are a pure function
// of its geometry and of the few device fields the simulator reads
// while recording (see Executor), so one recording serves every
// pipeline, device and pool slot in the process that builds the same
// geometry. A pipeline or back-substitution kernel whose key is known
// skips recording; one whose key is new makes a sampled recording,
// one simulated block per equivalence class (sample.go). Recording
// only measures: its outputs are never a solve's answer, so every
// solve, the process's first of a geometry included, runs the host
// twins. The audit (auditTwin) re-records every block on every audited
// run and panics if the result differs from the memo's, so both the
// memo's soundness and the sampling's are tested claims.

// memoCap bounds the memo. A full memo keeps what it has; later
// geometries record without being stored.
const memoCap = 1024

// recordKey holds everything that shapes the events of one recording.
// A pipeline's key names its first launch; the geometry fields fix the
// second. Device fields that only the cost model reads (Name, clock,
// bandwidths, SlowFactor) and the injector stay out of it.
type recordKey struct {
	// Device fields the simulator reads while recording: coalescing
	// and bank analysis, the shared-memory check, the block-size cap.
	warpSize, txBytes, sharedPerSM, maxThreads int

	// The launch: kernel name, threads per block and grid.
	kernel    string
	tpb, grid int

	// The geometry: batch shape, PCR steps, sub-tile scale, blocks per
	// system, the k = 0 block size, the element width in bytes and the
	// back-substitution rows per system.
	m, n, k, c, g, bs, elem, rows int
}

// memoEntry is one geometry's recording. done is closed once the
// recording ends; ok then tells whether st holds its Stats or the
// recording failed and the entry left the table.
type memoEntry struct {
	done chan struct{}
	ok   bool
	st   [2]gpusim.Stats
}

var memo struct {
	mu      sync.Mutex
	entries map[recordKey]*memoEntry
}

// testHookRecord, set only by tests, runs before every recording
// recordOnce starts.
var testHookRecord func(recordKey)

// recordOnce returns the Stats of the launches key describes, at most
// two. A known key returns the memo's copy. The first caller of a new
// key runs record, and concurrent callers of that key wait for it,
// honouring ctx. A failed or cancelled recording stores nothing; the
// next caller records again.
func recordOnce(ctx context.Context, key recordKey, record func(st *[2]gpusim.Stats) error) (st [2]gpusim.Stats, err error) {
	for {
		memo.mu.Lock()
		e, ok := memo.entries[key]
		if !ok {
			break
		}
		memo.mu.Unlock()
		if ctx == nil {
			<-e.done
		} else {
			select {
			case <-e.done:
			case <-ctx.Done():
				return st, cancelled(ctx.Err())
			}
		}
		if e.ok {
			return e.st, nil
		}
	}
	var e *memoEntry
	if len(memo.entries) < memoCap {
		if memo.entries == nil {
			memo.entries = make(map[recordKey]*memoEntry)
		}
		e = &memoEntry{done: make(chan struct{})}
		memo.entries[key] = e
	}
	memo.mu.Unlock()
	returned := false // record returned rather than panicked
	if e != nil {
		defer func() {
			memo.mu.Lock()
			if e.ok = returned && err == nil; e.ok {
				e.st = st
			} else {
				delete(memo.entries, key)
			}
			memo.mu.Unlock()
			close(e.done)
		}()
	}
	if testHookRecord != nil {
		testHookRecord(key)
	}
	err = record(&st)
	returned = true
	return st, err
}

// ResetRecordMemo empties the recording memo, so the next solve of
// every geometry records again. It is for benchmarks and tests that
// measure a cold recording; a recording in flight still completes.
func ResetRecordMemo() {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	for key, e := range memo.entries {
		select {
		case <-e.done:
			delete(memo.entries, key)
		default:
		}
	}
}
