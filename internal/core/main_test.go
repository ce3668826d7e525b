package core

import (
	"os"
	"testing"
)

// TestMain runs the package with the host-twin audit on: every replay
// that would run the host twins also replays the simulated kernels and
// panics on any bit of difference, so every test here doubles as a
// differential check of the twins.
func TestMain(m *testing.M) {
	auditTwin = true
	os.Exit(m.Run())
}
