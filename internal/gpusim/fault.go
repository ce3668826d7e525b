package gpusim

import (
	"fmt"

	"gputrid/internal/num"
)

// FaultKind selects which transient execution fault the injector models.
// All kinds are detected faults: the launch reports a LaunchError
// instead of silently returning corrupted results, mirroring how a real
// driver surfaces an ECC error, a launch failure, or a watchdog kill.
// The kind decides what the fault leaves behind, not whether any block
// runs: FaultSite.First is asked before a launch or a host twin does
// any work, so a faulted attempt computes nothing.
type FaultKind int

const (
	// FaultAbort kills the launch. The retry layer re-runs the whole
	// faulted range.
	FaultAbort FaultKind = iota
	// FaultCorrupt models an ECC-detected multi-bit upset in the
	// faulted block's output: the host twins write NaN over that
	// block's solution rows before reporting the error, so a recovery
	// layer that fails to re-execute the shard cannot pass a bitwise
	// check by luck.
	FaultCorrupt
	// FaultHang stalls the faulted block until the watchdog kills the
	// launch. Like FaultAbort nothing completes, but the caller is
	// charged a fixed watchdog budget as wasted modeled time.
	FaultHang

	numFaultKinds = 3
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultAbort:
		return "abort"
	case FaultCorrupt:
		return "corrupt"
	case FaultHang:
		return "hang"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// LaunchError is the typed failure of a kernel launch that hit an
// injected transient fault. It is returned by Device.Launch and
// FaultSite.First instead of silent success,
// and is matchable with errors.As through every wrapping layer.
type LaunchError struct {
	// Kernel is the launch's kernel name.
	Kernel string
	// Block is the grid index of the faulted block.
	Block int
	// Kind is what went wrong.
	Kind FaultKind
	// Attempt is the retry attempt (0 = first execution) that faulted.
	Attempt int
}

// Error formats the fault.
func (e *LaunchError) Error() string {
	return fmt.Sprintf("gpusim: kernel %q block %d: transient %s fault (attempt %d)",
		e.Kernel, e.Block, e.Kind, e.Attempt)
}

// ScheduledFault pins a fault to explicit coordinates, for tests and
// demos that need a specific kernel/block to fail deterministically.
type ScheduledFault struct {
	// Kernel matches the launch's kernel name; "" matches any kernel.
	Kernel string
	// Block matches the grid index; negative matches any block.
	Block int
	// Kind is the fault to inject.
	Kind FaultKind
	// Repeat is how many consecutive attempts of the site keep
	// faulting before it heals; 0 applies the injector default.
	Repeat int
}

// Injector is a seeded, schedulable source of transient device faults.
// Whether a fault fires is a pure function of (Seed, kernel, block,
// attempt) — never of wall-clock time or goroutine scheduling — so a
// given injector reproduces exactly the same fault pattern on every
// run, concurrent shards included, and a retried attempt redraws
// deterministically.
//
// Faults come from two sources: the explicit Schedule, and a seeded
// per-(kernel, block) Bernoulli draw at probability Rate. A faulted
// site keeps failing for Repeat consecutive attempts and then heals
// (the transient-fault model), so recovery converges whenever the
// retry budget is at least Repeat.
//
// Attach an injector to Device.Faults before launching. The zero value
// injects nothing.
type Injector struct {
	// Seed drives every pseudo-random decision.
	Seed uint64
	// Rate is the per-(kernel, block) fault probability in [0, 1].
	Rate float64
	// Kinds is drawn from for rate faults; empty means all kinds.
	Kinds []FaultKind
	// Repeat is how many consecutive attempts a faulted site keeps
	// failing before it heals; 0 means 1 (a one-shot transient).
	Repeat int
	// Schedule lists explicit faults, applied before the rate draw.
	Schedule []ScheduledFault
	// Gate dynamically arms and disarms the injector: when non-nil and
	// returning false, no fault fires. It must be safe for concurrent
	// use (e.g. read an atomic.Bool); fault-regime sweeps and breaker
	// recovery tests flip it between solves to model a fault burst that
	// heals. Nil means always armed.
	Gate func() bool
}

func (in *Injector) repeat() int {
	if in.Repeat <= 0 {
		return 1
	}
	return in.Repeat
}

// At decides whether block `block` of kernel `kernel` faults on the
// given attempt, and with which kind. It is safe for concurrent use.
func (in *Injector) At(kernel string, block, attempt int) (FaultKind, bool) {
	if in == nil {
		return 0, false
	}
	if in.Gate != nil && !in.Gate() {
		return 0, false
	}
	for _, f := range in.Schedule {
		if f.Kernel != "" && f.Kernel != kernel {
			continue
		}
		if f.Block >= 0 && f.Block != block {
			continue
		}
		rep := f.Repeat
		if rep <= 0 {
			rep = in.repeat()
		}
		if attempt < rep {
			return f.Kind, true
		}
		return 0, false
	}
	if in.Rate <= 0 || attempt >= in.repeat() {
		return 0, false
	}
	h := siteHash(in.Seed, kernel, block)
	if float64(h>>11)/(1<<53) >= in.Rate {
		return 0, false
	}
	kinds := in.Kinds
	if len(kinds) == 0 {
		return FaultKind(num.Mix64(h) % numFaultKinds), true
	}
	return kinds[num.Mix64(h)%uint64(len(kinds))], true
}

// siteHash hashes the fault coordinates: FNV-1a over the kernel name,
// mixed with the seed and block index through splitmix64 finalizers.
func siteHash(seed uint64, kernel string, block int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(kernel); i++ {
		h = (h ^ uint64(kernel[i])) * 1099511628211
	}
	return num.Mix64(h ^ num.Mix64(seed) ^ num.Mix64(uint64(block)*0x9E3779B97F4A7C15+1))
}

// FaultSite carries the fault-injection coordinates of one launch:
// which injector (nil disables injection), the kernel name faults are
// keyed on, and the retry attempt. It is the one place faults are
// decided; the zero value injects nothing.
type FaultSite struct {
	Inj     *Injector
	Kernel  string
	Attempt int
}

// First returns the fault the first of blocks [first, first+count)
// hits at this site, in block order, or nil when none does.
// Device.Launch asks it about the whole grid at attempt 0; a host twin
// standing in for a shard of blocks asks about that shard's range, so
// both report the same *LaunchError for the same coordinates.
func (s FaultSite) First(first, count int) *LaunchError {
	if s.Inj == nil {
		return nil
	}
	for id := first; id < first+count; id++ {
		if kind, ok := s.Inj.At(s.Kernel, id, s.Attempt); ok {
			return &LaunchError{Kernel: s.Kernel, Block: id, Kind: kind, Attempt: s.Attempt}
		}
	}
	return nil
}
