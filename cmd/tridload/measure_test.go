package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"gputrid"
	"gputrid/internal/fleet"
	"gputrid/internal/workload"
)

// A one-off stall in the system must show in the latency of every
// request that was due while it lasted: latency runs from the due time,
// not from when the client got around to sending.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 100 * time.Millisecond
	sched := make([]time.Duration, 50)
	for i := range sched {
		sched[i] = time.Duration(i) * 10 * time.Millisecond
	}
	res := runWorkers(sched, time.Second, time.Second, 1, func(i int) error {
		if i == 10 {
			time.Sleep(stall)
		}
		return nil
	})
	// Requests 11..19 were due 10..90 ms into the stall, so each waited
	// for the rest of it.
	for i := 11; i < 20; i++ {
		due := sched[i] - sched[10]
		if want := stall - due - 5*time.Millisecond; res.lat[i] < want {
			t.Errorf("request %d latency %v, want at least %v (the stall it queued behind)", i, res.lat[i], want)
		}
		if res.lag[i] >= 0 {
			t.Errorf("request %d counted as generator lag (%v); it queued behind a busy sender", i, res.lag[i])
		}
	}
	if res.lat[30] > 50*time.Millisecond {
		t.Errorf("request 30 latency %v: the stall should have drained by then", res.lat[30])
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	if _, err := percentile(seq(999), 0.99); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99 of 999 samples: err = %v, want errTooFewSamples", err)
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(19), 0.5); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p50 of 19 samples: err = %v, want errTooFewSamples", err)
	}
	// Windowed: 1999 samples hold one window of p99, 2000 hold two.
	if _, err := windowedPercentile(seq(999), 0.99); err == nil {
		t.Error("windowed p99 of 999 samples succeeded")
	}
	// The windows hold 2000..1001 and 1000..1, whose p99s are 1990 and
	// 990; the result is their median, and the input keeps its order.
	xs := seq(2000)
	if v, err := windowedPercentile(xs, 0.99); err != nil || v != 1490 {
		t.Errorf("windowed p99 of 1..2000 = %v, %v; want 1490", v, err)
	}
	if xs[0] != 2000 {
		t.Error("windowedPercentile reordered its input")
	}
}

func TestPoissonScheduleIsSeededAndHasItsRate(t *testing.T) {
	const rate, d = 1000.0, 100 * time.Second
	a := poissonSchedule(7, rate, d)
	if !slices.Equal(a, poissonSchedule(7, rate, d)) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a[:100], poissonSchedule(8, rate, d)[:100]) {
		t.Fatal("different seeds gave the same schedule")
	}
	if got := float64(len(a)) / d.Seconds(); math.Abs(got-rate)/rate > 0.02 {
		t.Errorf("mean rate %.1f/s, want %.0f/s within 2%%", got, rate)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= d {
			t.Fatalf("schedule not increasing within the phase at %d: %v, %v", i, a[i-1], a[i])
		}
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "step", Start: 0, End: 100 * ms, Parent: -1},
		// Two overlapping children cover 10..50; one runs past the
		// parent's end and counts only up to it.
		{Name: "solve", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "solve", Start: 20 * ms, End: 50 * ms, Parent: 0},
		{Name: "solve", Start: 90 * ms, End: 120 * ms, Parent: 0},
		// A grandchild is subtracted from its own parent only.
		{Name: "kernel", Start: 25 * ms, End: 28 * ms, Parent: 2},
		// An unclosed span is ignored.
		{Name: "solve", Start: 60 * ms, End: -1, Parent: 0},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	if s := got["step"]; s.Self != 50*time.Millisecond || s.Total != 100*time.Millisecond || s.Count != 1 {
		t.Errorf("step = %+v, want self 50ms of 100ms", s)
	}
	if s := got["solve"]; s.Count != 3 || s.Total != 80*time.Millisecond || s.Self != 77*time.Millisecond {
		t.Errorf("solve = %+v, want 3 spans, total 80ms, self 77ms", s)
	}
	if s := got["kernel"]; s.Self != 3*time.Millisecond {
		t.Errorf("kernel = %+v, want self 3ms", s)
	}
}

// The knee moves continuously with the miss share and never leaves the
// bracket the probes established.
func TestKneeSearchInterpolatesBetweenProbes(t *testing.T) {
	// below returns the highest grid rate at or below rate.
	below := func(rate float64) float64 {
		i := 0
		for kneeRate(1000, i+1) <= rate {
			i++
		}
		return kneeRate(1000, i)
	}
	// Misses rise linearly from 0 at 2000/s to 100% at 3000/s, crossing
	// maxMiss at 2100/s: the knee lies strictly between the grid rates
	// around 2100/s.
	missAbove := func(start float64) func(float64) float64 {
		return func(rate float64) float64 { return min(max((rate-start)/1000, 0), 1) }
	}
	knee := kneeSearch(1000, 0, missAbove(2000))
	if lo := below(2100); knee <= lo || knee >= lo*kneeStep {
		t.Errorf("knee %.1f, want inside (%.1f, %.1f)", knee, lo, lo*kneeStep)
	}
	// Moving the curve a little moves the knee a little, the same way.
	if k2 := kneeSearch(1000, 0, missAbove(2020)); k2 <= knee || k2 > knee*1.02 {
		t.Errorf("knee %.1f after shifting the curve 1%%, was %.1f", k2, knee)
	}
	// A cliff: every rate above 1500/s sheds all its requests: the knee
	// stays just above the last passing grid point.
	cliff := func(rate float64) float64 {
		if rate > 1500 {
			return 1
		}
		return 0
	}
	knee = kneeSearch(1000, 0, cliff)
	if lo := below(1500); knee < lo || knee > 1500 {
		t.Errorf("cliff knee %.1f, want in [%.1f, 1500]", knee, lo)
	}
}

// Per-op metrics must not depend on how long the run was: the recorded
// comm-MB/op anchor once divided a per-solve quantity by the iteration
// count, and read 5x too small at 5 iterations and 40x at 40.
func TestPerOpMetricsIndependentOfRunLength(t *testing.T) {
	fl, err := fleet.New(fleet.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(fl)
	b := workload.Batch[float64](workload.DiagDominant, 1, 4097, 3)
	perSolve := func(n int) map[string]float64 {
		tot := &distTotals{}
		for i := 0; i < n; i++ {
			r, err := fl.SolveDistributed(context.Background(), b)
			if err != nil {
				t.Fatal(err)
			}
			tot.add(&r.Report)
		}
		o := newOutcome()
		o.setDist(tot)
		return o.metrics
	}
	short, long := perSolve(5), perSolve(40)
	if short["core.dist.comm_mb_per_solve"] <= 0 {
		t.Fatalf("comm_mb_per_solve = %v, want > 0", short["core.dist.comm_mb_per_solve"])
	}
	for name, v := range short {
		if math.Abs(long[name]-v) > 1e-12*math.Abs(v) {
			t.Errorf("%s: %v after 5 solves, %v after 40", name, v, long[name])
		}
	}

	// Runtime and CPU per op: twice the work over twice the ops.
	snap := func(k uint64) runtimeSnap {
		return runtimeSnap{gcCycles: 3 * k, allocBytes: 4e6 * k, allocObjects: 500 * k,
			gcCPU: time.Duration(k) * time.Millisecond, cpu: time.Duration(k) * 20 * time.Millisecond}
	}
	one, two := newOutcome(), newOutcome()
	one.setRuntime(snap(1), snap(2), 100)
	two.setRuntime(snap(1), snap(3), 200)
	for name, v := range one.metrics {
		if two.metrics[name] != v {
			t.Errorf("%s: %v over 100 ops, %v over 200", name, v, two.metrics[name])
		}
	}
	var w1, w2 windowed
	w1.add(100, 50*time.Millisecond, time.Second)
	w2.add(200, 100*time.Millisecond, 2*time.Second)
	if w1.cpu[0] != w2.cpu[0] || w1.rate[0] != w2.rate[0] {
		t.Errorf("window cpu/op %v vs %v, rate %v vs %v", w1.cpu, w2.cpu, w1.rate, w2.rate)
	}
}

func TestCheckFlagsRegressions(t *testing.T) {
	bf, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	result := func(p50, modeled float64, failed int) *resultFile {
		return &resultFile{Workloads: map[string]*workloadResult{"adi-step": {
			Correct: true, Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{
				"lat_p50_ms": {Value: p50, Unit: "ms"},
				"modeled_ms": {Value: modeled, Unit: "ms"},
				"error_rate": {Value: float64(failed) / 100, Unit: "ratio"},
			},
		}}}
	}
	base := result(10, 0.3, 0)
	if _, bad := compareResults(bf, base, result(10.5, 0.3, 0)); bad {
		t.Error("a 5% slower median counted as a regression")
	}
	cases := map[string]*resultFile{
		"median 40% slower":  result(14, 0.3, 0),
		"modeled time moved": result(10, 0.3000001, 0),
		"errors appeared":    result(10, 0.3, 1),
	}
	for name, cur := range cases {
		if rows, bad := compareResults(bf, base, cur); !bad {
			t.Errorf("%s: not flagged: %v", name, rows)
		}
	}
	missing := &resultFile{Workloads: map[string]*workloadResult{}}
	if _, bad := compareResults(bf, base, missing); !bad {
		t.Error("a missing workload was not flagged")
	}
}

// solveReply decoding and the reference comparison catch one wrong
// entry in an otherwise correct HTTP response.
func TestHTTPCheckCountsPerturbedSolution(t *testing.T) {
	b, err := newBody(classSpline, splineBatch(splineN, 1))
	if err != nil {
		t.Fatal(err)
	}
	x, err := gputrid.SolveCPUPivoting(b.batch)
	if err != nil {
		t.Fatal(err)
	}
	good := encodeReply(t, x)
	x[17] *= 1 + 1e-6
	bad := encodeReply(t, x)
	p := &httpPhase{picks: []*body{b, b}, recs: []httpRec{
		{status: 200, resp: good}, {status: 200, resp: bad},
	}}
	p.check()
	if p.incorrect != 1 {
		t.Errorf("incorrect = %d, want 1", p.incorrect)
	}
}

func encodeReply(t *testing.T, x []float64) []byte {
	t.Helper()
	b, err := json.Marshal(solveReply{X: x, Route: "coalesced"})
	if err != nil {
		t.Fatal(err)
	}
	return b
}
