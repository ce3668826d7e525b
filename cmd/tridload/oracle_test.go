package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gputrid/internal/matrix"
)

// testEnv is an env whose build outputs and span files go to temporary
// directories and whose log goes to the test log.
func testEnv(t *testing.T, trace bool, seconds float64) *env {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return &env{root: root, bindir: t.TempDir(), tracedir: t.TempDir(), seed: 1,
		seconds: seconds, trace: trace, log: testLog{t}}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// A backend that perturbs one entry of one solution must be caught by
// the correctness oracle: counted in error_rate, reported as incorrect
// on the result line, and turned into a non-zero exit.
func TestOracleCatchesPerturbedSolve(t *testing.T) {
	spec := *workloadByName("adi-step")
	spec.n = 32
	spec.start = func(e *env, w *workloadSpec) (system, error) {
		sys, err := startADI(e, w)
		if err != nil {
			return nil, err
		}
		s := sys.(*adiSys)
		solve, calls := s.h.Backend, 0
		s.h.Backend = func(b *matrix.Batch[float64]) ([]float64, error) {
			x, err := solve(b)
			if calls++; calls == 50 {
				x[7] += 1e-3 * (1 + x[7])
			}
			return x, err
		}
		return s, nil
	}
	// A traced run needs no set-up children.
	e := testEnv(t, true, 1)
	o, err := spec.run(e, &spec)
	if err != nil {
		t.Fatal(err)
	}
	r := o.result(e.trace)
	if r.Incorrect == 0 || r.Metrics["error_rate"].Value <= 0 {
		t.Fatalf("perturbed solve not caught: incorrect %d, error_rate %v", r.Incorrect, r.Metrics["error_rate"])
	}
	var stdout, stderr bytes.Buffer
	if code := report(e, &spec, o, "", &stdout, &stderr); code == 0 {
		t.Error("exit code 0 with an incorrect result")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if last.Correct || last.Failed == 0 {
		t.Errorf("result line says correct=%t failed=%d", last.Correct, last.Failed)
	}
}
