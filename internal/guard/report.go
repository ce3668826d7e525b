package guard

import (
	"errors"
	"fmt"
)

// Stage names the step of the verdict that produced a system's final
// answer (or gave up).
type Stage int

const (
	// StageFast: the hybrid fast-path solution passed the residual
	// check unmodified.
	StageFast Stage = iota
	// StagePivot: the system was re-solved with the pivoting GTSV
	// algorithm (the dgtsv path), which handles any nonsingular
	// tridiagonal matrix.
	StagePivot
	// StageFailed: the pivoting re-solve failed too (or the input
	// itself was non-finite); the system carries a SolveError and a
	// zeroed solution.
	StageFailed
)

// String names the stage for reports and diagnostics.
func (s Stage) String() string {
	switch s {
	case StageFast:
		return "fast"
	case StagePivot:
		return "pivot"
	case StageFailed:
		return "failed"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// SystemReport records what the verdict did to one system: which stage
// produced the accepted answer, the residual before and after the
// rescue, and — for a system SolveGuarded failed — its condition
// estimate.
type SystemReport struct {
	// System is the batch index.
	System int
	// Stage is the step that produced the final solution.
	Stage Stage
	// ResidualBefore is the normwise relative residual of the fast-path
	// solution (+Inf when it contained Inf/NaN, or when the input was
	// rejected before solving).
	ResidualBefore float64
	// ResidualAfter is the residual of the accepted solution (equal to
	// ResidualBefore for StageFast systems).
	ResidualAfter float64
	// CondEst is the Hager-Higham κ₁ estimate, which SolveGuarded
	// computes only for a system that failed (0 when not estimated,
	// +Inf for a numerically singular matrix). A rescued system's is
	// one ConditionEstBatch call away.
	CondEst float64
	// Err is non-nil iff Stage == StageFailed.
	Err *SolveError
}

// ErrUnrecoverable is the sentinel every SolveError matches under
// errors.Is: not even the pivoting re-solve could solve a system.
var ErrUnrecoverable = errors.New("guard: system unrecoverable")

// ErrNonFiniteInput marks a system whose coefficients already contained
// NaN/Inf on entry — garbage-in, as opposed to numerical breakdown
// inside a solver. SolveErrors caused by it match under errors.Is.
var ErrNonFiniteInput = errors.New("guard: non-finite input coefficient")

// SolveError is the typed per-system failure of a guarded solve. It is
// errors.As-able from the joined error SolveGuarded returns, and
// errors.Is(err, ErrUnrecoverable) matches it.
type SolveError struct {
	// System is the batch index of the failing system.
	System int
	// Stage is the last step attempted before giving up.
	Stage Stage
	// Residual is the best residual any step achieved (+Inf when every
	// attempt produced non-finite values).
	Residual float64
	// CondEst is the κ₁ estimate of the failing matrix (0 when not
	// estimated, +Inf when numerically singular).
	CondEst float64
	// Cause is the underlying failure (e.g. a zero-pivot error from the
	// pivoting solver, or ErrNonFiniteInput), reachable via Unwrap.
	Cause error
}

// Error formats the failure with everything a caller needs to diagnose
// it: system, stage, residual, and condition estimate when known.
func (e *SolveError) Error() string {
	msg := fmt.Sprintf("guard: system %d unrecoverable at stage %s (residual %.3e", e.System, e.Stage, e.Residual)
	if e.CondEst > 0 {
		msg += fmt.Sprintf(", cond1 ~%.1e", e.CondEst)
	}
	msg += ")"
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *SolveError) Unwrap() error { return e.Cause }

// Is matches the ErrUnrecoverable sentinel.
func (e *SolveError) Is(target error) bool { return target == ErrUnrecoverable }
