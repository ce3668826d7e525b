// Package gputrid is a scalable tridiagonal solver modeled on
// "A Scalable Tridiagonal Solver for GPUs" (Kim, Wu, Chang, Hwu,
// ICPP 2011). It solves batches of tridiagonal systems A·x = d with a
// hybrid of tiled parallel cyclic reduction (a streaming front-end that
// splits each system into 2^k independent interleaved subsystems using
// a buffered sliding window in shared memory) and thread-level parallel
// Thomas (a coalesced back-end that solves the subsystems one per
// thread), choosing k at runtime from the batch size and the hardware's
// parallelism.
//
// Because this environment has no GPU, kernels run on internal/gpusim,
// a functional simulator of the CUDA execution model that also records
// the architectural events (coalesced transactions, eliminations,
// barriers, occupancy, launches) from which a deterministic
// execution-time estimate is produced. Solutions are always computed
// for real; see DESIGN.md for the substitution rationale.
//
// # Quick start
//
//	sys := gputrid.NewSystem[float64](1024)
//	// ... fill sys.Lower, sys.Diag, sys.Upper, sys.RHS ...
//	res, err := gputrid.Solve(sys)
//	// res.X holds the solution.
//
// Batches use SolveBatch; options such as WithK, WithBlocksPerSystem
// and WithDevice tune the paper's knobs.
package gputrid

import (
	"context"
	"fmt"
	"time"

	"gputrid/internal/core"
	"gputrid/internal/cpu"
	"gputrid/internal/gpusim"
	"gputrid/internal/guard"
	"gputrid/internal/matrix"
	"gputrid/internal/num"
)

// Real constrains the element types the solvers accept: float32 (the
// paper's single-precision results) or float64 (its headline numbers).
type Real = num.Real

// System is one tridiagonal system in the row convention of the paper's
// Eq. (1): Lower[i]·x[i-1] + Diag[i]·x[i] + Upper[i]·x[i+1] = RHS[i],
// with Lower[0] and Upper[n-1] ignored.
type System[T Real] = matrix.System[T]

// Batch is M independent systems of N rows in the contiguous layout
// (system i occupies [i*N, (i+1)*N) of each slice).
type Batch[T Real] = matrix.Batch[T]

// Interleaved is M systems in the coalescing-friendly interleaved
// layout (row j of system i at j*M+i).
type Interleaved[T Real] = matrix.Interleaved[T]

// Device describes the simulated GPU executing the kernels.
type Device = gpusim.Device

// Stats are the architectural events recorded during a solve.
type Stats = gpusim.Stats

// LayoutStats counts interleaved-native vs shimmed solver entries (see
// Solver.LayoutStats).
type LayoutStats = core.LayoutStats

// NewSystem allocates an n-row system with zero coefficients.
func NewSystem[T Real](n int) *System[T] { return matrix.NewSystem[T](n) }

// NewBatch allocates an M×N batch with zero coefficients.
func NewBatch[T Real](m, n int) *Batch[T] { return matrix.NewBatch[T](m, n) }

// GTX480 returns the device description of the paper's test GPU, the
// default device.
func GTX480() *Device { return gpusim.GTX480() }

// AutoK requests the paper's Table III heuristic for the PCR step
// count (the default).
const AutoK = core.KAuto

type config struct {
	device  *Device
	k       int
	c       int
	blocks  int
	workers int
	guard   *GuardPolicy
	retry   RetryPolicy
	inject  *FaultInjector
}

func (c *config) coreConfig() core.Config {
	return core.Config{
		Device:          c.device,
		K:               c.k,
		C:               c.c,
		BlocksPerSystem: c.blocks,
		Workers:         c.workers,
		Retry:           c.retry,
	}
}

// Option customizes a solve.
type Option func(*config)

// WithDevice selects the simulated device (default GTX480).
func WithDevice(d *Device) Option { return func(c *config) { c.device = d } }

// WithK fixes the number of tiled-PCR steps; k = 0 goes straight to
// p-Thomas. Without this option (or with WithK(AutoK)) the Table III
// heuristic applies.
func WithK(k int) Option { return func(c *config) { c.k = k } }

// WithSubTileScale sets the Table I sub-tile scale factor c >= 1:
// each thread produces c outputs per window advance.
func WithSubTileScale(scale int) Option { return func(c *config) { c.c = scale } }

// WithBlocksPerSystem splits every system across g thread blocks
// (paper Fig. 11(b)); useful for small batches of very large systems.
func WithBlocksPerSystem(g int) Option { return func(c *config) { c.blocks = g } }

// WithWorkers bounds the worker pool a Solver or one-shot solve shards
// its host-twin solves across; 0 (the default) means GOMAXPROCS. Every
// solve runs its twins on the pool; only the recording that a
// geometry's first solve in the process makes beforehand runs on a
// single lane.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithGuard sets SolveGuarded's fault-injection hook (GuardPolicy's
// one field). The verdict itself is fixed. Ignored by the unguarded
// Solve/SolveBatch entry points.
func WithGuard(p GuardPolicy) Option { return func(c *config) { c.guard = &p } }

// WithRetry bounds the recovery from transient device faults: how many
// times a faulted shard is re-executed (with capped exponential
// backoff) before its systems degrade to the host pivoting path — or,
// with RetryPolicy.NoDegrade, before the solve fails with ErrFaulted.
// The zero value is the production default (3 retries, 50µs base
// backoff capped at 2ms, degradation on). Only consulted when the
// device injects faults (WithFaultInjection).
func WithRetry(p RetryPolicy) Option { return func(c *config) { c.retry = p } }

// WithFaultInjection attaches a deterministic transient-fault injector
// to the solve's device: kernel launches abort, corrupt their output
// (the faulted block's solution rows turn NaN), or hang according to
// the injector's seeded schedule, exercising the retry/degradation
// machinery (see RetryPolicy). A hang is charged a fixed 10ms watchdog
// budget in FaultReport.WastedModeledTime. The caller's Device
// value is not mutated — the solver works on a private copy carrying
// the injector. Nil restores fault-free execution. For chaos tests and
// demos (tridsolve -chaos), never enabled by default.
func WithFaultInjection(inj *FaultInjector) Option {
	return func(c *config) { c.inject = inj }
}

// Result reports a solve: the solution and what the solver did.
type Result[T Real] struct {
	// X holds the solutions in natural order: row j of system i at
	// X[i*N+j].
	X []T
	// K is the number of PCR steps actually used.
	K int
	// BlocksPerSystem is the Fig. 11 mapping used by the front-end.
	BlocksPerSystem int
	// Stats aggregates the recorded device events.
	Stats *Stats
	// ModeledTime is the device cost model's execution-time estimate
	// for the kernels of this solve.
	ModeledTime time.Duration
	// WallTime is the measured host time of the solve, the host twins'
	// arithmetic plus, on a geometry's first solve in the process, its
	// recording (not comparable to real GPU time; use ModeledTime for
	// paper-style comparisons).
	WallTime time.Duration
	// Faults describes the fault-recovery activity of the solve (nil
	// when nothing fired).
	Faults *FaultReport
}

func buildConfig(opts []Option) config {
	c := config{k: AutoK}
	for _, o := range opts {
		o(&c)
	}
	if c.device == nil {
		c.device = GTX480()
	}
	if c.inject != nil {
		// Attach the injector to a private device copy so the caller's
		// Device (possibly shared across solvers) stays fault-free.
		d := *c.device
		d.Faults = c.inject
		c.device = &d
	}
	return c
}

// faultsOf extracts a solve's fault report when anything fired.
func faultsOf(rep *core.Report) *FaultReport {
	if rep.Faults != nil && rep.Faults.Any() {
		return rep.Faults
	}
	return nil
}

// resultOf assembles the public result of a solve from its solution,
// execution report and measured wall time.
func resultOf[T Real](x []T, rep *core.Report, dev *Device, wall time.Duration) Result[T] {
	return Result[T]{
		X:               x,
		K:               rep.K,
		BlocksPerSystem: rep.BlocksPerSystem,
		Stats:           rep.Stats,
		ModeledTime:     secondsToDuration(modeled[T](dev, rep)),
		WallTime:        wall,
		Faults:          faultsOf(rep),
	}
}

// SolveBatch solves every system of the batch with the hybrid solver.
// It is SolveBatchCtx with a background context.
func SolveBatch[T Real](b *Batch[T], opts ...Option) (*Result[T], error) {
	return SolveBatchCtx(context.Background(), b, opts...)
}

// SolveBatchCtx is SolveBatch with cooperative cancellation: once ctx
// is done the solve stops promptly (between kernel blocks and during
// retry backoff waits) and returns an error matching both ErrCancelled
// and the context's own error, with no goroutine leaks. Combine with
// WithFaultInjection and WithRetry to exercise transient-fault
// recovery; the result's Faults field reports what the recovery layer
// did. WallTime covers the solve itself, not the construction of its
// transient pipeline.
func SolveBatchCtx[T Real](ctx context.Context, b *Batch[T], opts ...Option) (*Result[T], error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("gputrid: invalid batch: %w", err)
	}
	s, err := NewSolver[T](b.M, b.N, opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	x := make([]T, b.M*b.N)
	if err := s.SolveBatchIntoCtx(ctx, x, b); err != nil {
		return nil, err
	}
	res := resultOf(x, s.pipe.Report(), s.c.device, s.LastSolveTime())
	return &res, nil
}

// Solve solves a single tridiagonal system.
func Solve[T Real](s *System[T], opts ...Option) (*Result[T], error) {
	b := matrix.NewBatch[T](1, s.N())
	b.SetSystem(0, s)
	return SolveBatch(b, opts...)
}

// SolveInterleaved solves a batch stored in the interleaved layout,
// returning the solutions interleaved the same way (X[j*M+i]). It
// runs the interleaved-native pipeline entry: on the k = 0 path the
// kernels consume the planes directly — no layout conversion at all —
// and results are bitwise identical to converting and calling
// SolveBatch on the same data.
func SolveInterleaved[T Real](v *Interleaved[T], opts ...Option) (*Result[T], error) {
	if err := validateInterleaved(v); err != nil {
		return nil, fmt.Errorf("gputrid: invalid batch: %w", err)
	}
	s, err := NewSolver[T](v.M, v.N, opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	xi := make([]T, v.M*v.N)
	if err := s.SolveInterleavedInto(xi, v); err != nil {
		return nil, err
	}
	res := resultOf(xi, s.pipe.Report(), s.c.device, s.LastSolveTime())
	return &res, nil
}

// validateInterleaved rejects non-finite coefficients in an
// interleaved batch, naming the offending system and row like
// Batch.Validate does for the contiguous layout.
func validateInterleaved[T Real](v *Interleaved[T]) error {
	if v.M <= 0 || v.N <= 0 {
		return fmt.Errorf("batch shape %dx%d is empty", v.M, v.N)
	}
	planes := []struct {
		name string
		s    []T
	}{{"lower", v.Lower}, {"diag", v.Diag}, {"upper", v.Upper}, {"rhs", v.RHS}}
	for _, pl := range planes {
		if len(pl.s) != v.M*v.N {
			return fmt.Errorf("%s plane has %d elements, want M*N=%d", pl.name, len(pl.s), v.M*v.N)
		}
		for idx, val := range pl.s {
			if !num.IsFinite(val) {
				return fmt.Errorf("system %d row %d: non-finite %s entry %v", idx%v.M, idx/v.M, pl.name, val)
			}
		}
	}
	return nil
}

// SolveCPU solves the batch on the host with the sequential Thomas
// algorithm — the reference/baseline path (MKL-sequential proxy).
func SolveCPU[T Real](b *Batch[T]) ([]T, error) {
	x, err := cpu.SolveBatchSeq(b)
	if err != nil {
		return nil, fmt.Errorf("gputrid: %w", err)
	}
	return x, nil
}

// Residual returns the worst normwise relative backward error of a
// batch solution, for callers that verify selectively. It is +Inf,
// never NaN, when any system's x or right-hand side holds a NaN or
// infinite entry (or its A x does, or its norms overflow), so a
// `Residual(b, x) <= tol` check fails such a solution and a `> tol`
// check catches it.
func Residual[T Real](b *Batch[T], x []T) float64 {
	return matrix.MaxResidual(b, x)
}

// ConditionEst estimates the 1-norm condition number of the system with
// the Hager-Higham estimator (a handful of pivoted tridiagonal solves).
// Large values warn that the non-pivoting fast path may lose accuracy;
// +Inf indicates a numerically singular matrix.
func ConditionEst[T Real](s *System[T]) float64 {
	return matrix.Cond1Est(s, cpu.SolveGTSV[T])
}

// Factorization caches the elimination of a batch's matrices so
// repeated solves against new right-hand sides (time stepping, ADI)
// skip the matrix work. It is a HybridFactorization at k = 0.
type Factorization[T Real] = core.HybridFactorization[T]

// Factor eliminates every matrix of the batch once (Thomas LU, which is
// FactorHybrid at k = 0); call Factorization.Solve for each new set of
// right-hand sides, which then allocates nothing. A zero or non-finite
// pivot is an error.
func Factor[T Real](b *Batch[T]) (*Factorization[T], error) {
	return FactorHybrid(b, 0)
}

// HybridFactorization caches a batch's k-step PCR multipliers and
// p-Thomas pivots so new right-hand sides replay at a fraction of the
// elimination work (see FactorHybrid). Its Solve equals Solve at the
// same k bit for bit and allocates nothing; it must not run
// concurrently on one factorization.
type HybridFactorization[T Real] = core.HybridFactorization[T]

// FactorHybrid factors the batch for the hybrid algorithm at depth k
// (AutoK applies the Table III heuristic). Use it when the same
// matrices are solved against many right-hand sides, as in ADI time
// stepping: each solve replays the recorded reduction, bit for bit the
// arithmetic of Solve. A zero or non-finite pivot is an error.
func FactorHybrid[T Real](b *Batch[T], k int) (*HybridFactorization[T], error) {
	f, err := core.FactorHybrid(b, k)
	if err != nil {
		return nil, fmt.Errorf("gputrid: %w", err)
	}
	return f, nil
}

// SolveCPUPivoting solves the batch on the host with LU decomposition
// and partial pivoting (the dgtsv algorithm) — stable for any
// nonsingular system, including ones the fast non-pivoting paths
// cannot handle.
func SolveCPUPivoting[T Real](b *Batch[T]) ([]T, error) {
	x, err := cpu.SolveBatchGTSV(b)
	if err != nil {
		return nil, fmt.Errorf("gputrid: %w", err)
	}
	return x, nil
}

// GuardPolicy carries SolveGuarded's fault-injection hook; the zero
// value is production. The verdict is not tunable: the pivoting
// rescue at the size-scaled residual tolerance, and a condition
// estimate for every failed system.
type GuardPolicy = guard.Policy

// GuardStage names the step that produced a system's final answer.
type GuardStage = guard.Stage

// The verdict's steps, in order of application.
const (
	StageFast   = guard.StageFast   // hybrid fast path, unmodified
	StagePivot  = guard.StagePivot  // rescued by the pivoting GTSV path
	StageFailed = guard.StageFailed // unrecoverable; carries a SolveError
)

// SystemReport records what the guarded pipeline did to one system.
type SystemReport = guard.SystemReport

// SolveError is the typed per-system failure of a guarded solve;
// retrieve it from the returned error with errors.As, or match the
// class with errors.Is(err, ErrUnrecoverable) / ErrNonFiniteInput.
type SolveError = guard.SolveError

// GuardFault and GuardInjection form the deterministic fault-injection
// hook: chosen systems are corrupted at seeded rows before or after the
// fast solve, driving specific stages of the verdict — for chaos
// tests and demos, never enabled by default.
type (
	GuardFault     = guard.Fault
	GuardInjection = guard.Injection
)

// The injectable fault kinds and the stage each one lands on.
const (
	FaultCorruptSolution = guard.FaultCorruptSolution // -> StagePivot
	FaultZeroDiagonal    = guard.FaultZeroDiagonal    // -> StagePivot
	FaultSingularMatrix  = guard.FaultSingularMatrix  // -> StageFailed
	FaultNaNCoefficient  = guard.FaultNaNCoefficient  // -> StageFailed (garbage-in)
)

// RetryPolicy bounds recovery from transient device faults; see
// WithRetry. The zero value is the production default.
type RetryPolicy = core.RetryPolicy

// FaultReport describes what the fault-recovery layer did during one
// solve: fault and retry counts per kernel, the systems degraded to
// the host pivoting path, and the modeled device time the faulted
// attempts wasted.
type FaultReport = core.FaultReport

// FaultInjector deterministically injects transient faults into kernel
// launches; see WithFaultInjection. Decisions are a pure function of
// (Seed, kernel, block, attempt) — independent of goroutine
// scheduling — so a given seed reproduces the same faults every run.
type FaultInjector = gpusim.Injector

// ScheduledFault pins a fault to an exact (kernel, block) site; see
// FaultInjector.Schedule.
type ScheduledFault = gpusim.ScheduledFault

// DeviceFaultKind enumerates the injectable transient launch faults.
type DeviceFaultKind = gpusim.FaultKind

// The transient launch-fault kinds (distinct from the guard's
// data-level Fault* injection kinds above).
const (
	FaultAbort   = gpusim.FaultAbort   // launch fails before completing
	FaultCorrupt = gpusim.FaultCorrupt // block's output rows NaN, fault detected
	FaultHang    = gpusim.FaultHang    // block stalls past the watchdog
)

// LaunchError is the typed transient fault a kernel launch surfaces;
// retrieve it from a returned error with errors.As.
type LaunchError = gpusim.LaunchError

// Typed execution-failure errors, matchable with errors.Is.
var (
	// ErrCancelled matches errors from solves stopped by context
	// cancellation or deadline expiry. The same error also matches the
	// underlying context.Canceled / context.DeadlineExceeded.
	ErrCancelled = core.ErrCancelled
	// ErrFaulted matches errors from transient device faults that
	// survived the retry budget and could not be degraded away.
	ErrFaulted = core.ErrFaulted
)

// ErrUnrecoverable matches (via errors.Is) every per-system SolveError:
// not even the pivoting re-solve could solve that system.
var ErrUnrecoverable = guard.ErrUnrecoverable

// ErrNonFiniteInput matches SolveErrors for systems whose coefficients
// already contained NaN/Inf on entry — garbage-in, distinguished from
// numerical breakdown inside a solver.
var ErrNonFiniteInput = guard.ErrNonFiniteInput

// GuardedResult extends Result with the per-system diagnosis of a
// guarded solve.
type GuardedResult[T Real] struct {
	*Result[T]
	// Reports has one entry per system in batch order: the stage used,
	// residual before/after, and a failed system's condition estimate.
	Reports []SystemReport
	// Failed lists the unrecoverable systems (empty on full success);
	// the same errors are joined into SolveGuarded's returned error.
	Failed []*SolveError
}

// Stages counts the systems per final stage, for summary diagnostics.
func (r *GuardedResult[T]) Stages() map[GuardStage]int {
	m := make(map[GuardStage]int)
	for _, rep := range r.Reports {
		m[rep.Stage]++
	}
	return m
}

// SolveGuarded solves the batch with per-system fault isolation: the
// hybrid fast path handles the bulk, every system's residual is then
// checked individually, and only failing systems are re-solved with
// the pivoting GTSV algorithm, or failing that get a typed SolveError
// — one degenerate system never poisons the other M-1.
//
// The returned X is always fully finite (unrecoverable systems are
// zeroed and diagnosed instead of emitting Inf/NaN). The error is nil
// when every system passed tolerance, possibly after rescue; otherwise
// it joins the per-system SolveErrors while the result still carries
// the healthy solutions — check Failed (or errors.As) rather than
// discarding the result. SolveGuarded is the checked solve: a plain
// Solve/SolveBatch does not look at its residuals. WithGuard sets the
// fault-injection hook; the other options (WithK, WithDevice, ...)
// apply to the fast path as usual.
func SolveGuarded[T Real](b *Batch[T], opts ...Option) (*GuardedResult[T], error) {
	s, err := NewSolver[T](b.M, b.N, opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.SolveGuarded(b)
}

// ConditionEstBatch estimates the 1-norm condition number of the
// selected systems of a batch (result[j] for systems[j]); see
// ConditionEst. Estimation costs a few pivoted solves per system, so
// callers should pass only the systems they care about, e.g. the ones
// a guarded solve reports as StagePivot (the guard estimates only the
// systems that failed).
func ConditionEstBatch[T Real](b *Batch[T], systems []int) []float64 {
	return matrix.Cond1EstBatch(b, systems, cpu.SolveGTSV[T])
}

func modeled[T Real](d *Device, rep *core.Report) float64 {
	return core.ModeledTime[T](d, rep)
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
