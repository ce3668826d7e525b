//go:build !race

package bench

// raceEnabled reports a -race build: the race detector's
// instrumentation allocates, so allocation counts are not pinned then.
const raceEnabled = false
