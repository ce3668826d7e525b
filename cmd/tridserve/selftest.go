package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gputrid"
	"gputrid/internal/core"
	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
	"gputrid/internal/workload"
)

// runSelfTest exercises the whole serving stack — a one-device fleet
// built by the constructor the live server uses — end to end against
// a real loopback listener: correctness over HTTP vs the serial
// reference solve, fail-fast 503s under 4x-capacity offered load,
// breaker trip to the CPU fallback under injected faults with
// recovery once they heal, and a graceful drain; then a three-device
// fleet's distributed route through a device death. CI runs it under
// -race. ctx bounds the whole run (the -timeout flag): every HTTP
// request and every wait loop derives from it, so a hung stack fails
// the selftest instead of wedging it.
func runSelfTest(ctx context.Context) error {
	// faultsArmed gates the injector: the selftest flips it to model a
	// fault burst that later heals, driving the breaker round trip.
	var faultsArmed atomic.Bool
	inj := &gputrid.FaultInjector{
		Seed: 42, Rate: 0.9, Repeat: 1,
		Kinds: []gputrid.DeviceFaultKind{gputrid.FaultAbort},
		Gate:  faultsArmed.Load,
	}
	srv, err := newServer(fleet.Config{
		Devices: 1,
		Pool: gputrid.PoolConfig{
			Capacity:   1,
			QueueLimit: 1,
			Breaker: gputrid.BreakerPolicy{
				Window: 8, TripRatio: 0.5, MinSamples: 4,
				Cooldown: 50 * time.Millisecond, ProbeSuccesses: 2,
			},
			SolverOptions: []gputrid.Option{gputrid.WithFaultInjection(inj)},
		},
	}, 0, 0, 0)
	if err != nil {
		return err
	}
	defer srv.close(context.Background())
	base, stop, err := listenLoopback(srv)
	if err != nil {
		return err
	}
	defer stop()

	if err := checkCorrectness(ctx, base); err != nil {
		return fmt.Errorf("correctness: %w", err)
	}
	if err := checkOverload(ctx, base); err != nil {
		return fmt.Errorf("overload: %w", err)
	}
	if err := checkBreaker(ctx, base, &faultsArmed); err != nil {
		return fmt.Errorf("breaker: %w", err)
	}
	if err := checkDrain(ctx, base, srv); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := checkDistributed(ctx); err != nil {
		return fmt.Errorf("distributed: %w", err)
	}
	return nil
}

// listenLoopback serves srv's routes on a loopback port; stop closes
// the listener.
func listenLoopback(srv *server) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.routes()}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}

// checkDistributed runs the -distmin path end to end over HTTP: a
// huge-N request routes across every device of the simulated fabric,
// one device is armed to die on its first kernel launch of the solve,
// and the response must still arrive — bitwise identical to the
// fault-free distributed reference — with the death reported in the
// response and the device cordoned by the next control-loop tick.
func checkDistributed(ctx context.Context) error {
	const devices, victim = 3, 2
	const m, n = 2, 2049
	topo, err := gpusim.UniformTopology(devices, gpusim.NVLinkMesh(), gpusim.GTX480())
	if err != nil {
		return err
	}
	topo.Device(victim).Faults = &gpusim.Injector{
		Schedule: []gpusim.ScheduledFault{{Kind: gpusim.FaultAbort, Repeat: 1 << 30}},
	}
	srv, err := newServer(fleet.Config{Devices: devices, DistTopology: topo}, 0, 0, 1024)
	if err != nil {
		return err
	}
	defer srv.close(context.Background())
	base, stop, err := listenLoopback(srv)
	if err != nil {
		return err
	}
	defer stop()

	b := workload.Batch[float64](workload.DiagDominant, m, n, 99)
	code, fr, er, err := postSolve(ctx, base, requestFor(b, 0))
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("huge-N solve: status %d (%+v), want 200", code, er)
	}
	if fr.Route != "distributed" {
		return fmt.Errorf("route %q, want distributed", fr.Route)
	}
	if len(fr.DistDeaths) != 1 || fr.DistDeaths[0] != victim {
		return fmt.Errorf("dist_deaths %v, want [%d]", fr.DistDeaths, victim)
	}
	if fr.DistMigrations == 0 {
		return fmt.Errorf("device death cost no migration")
	}

	// Fault-free reference on a clean topology: the recovered solve
	// must reproduce these exact bits.
	clean, err := gpusim.UniformTopology(devices, gpusim.NVLinkMesh(), gpusim.GTX480())
	if err != nil {
		return err
	}
	refSolver, err := core.NewDistSolver[float64](core.DistConfig{Topology: clean, Slabs: devices}, m, n)
	if err != nil {
		return err
	}
	defer refSolver.Close()
	ref := make([]float64, m*n)
	if _, err := refSolver.SolveInto(ctx, ref, b); err != nil {
		return err
	}
	for i := range ref {
		if fr.X[i] != ref[i] {
			return fmt.Errorf("element %d differs bitwise from fault-free reference", i)
		}
	}

	// The death surfaced into the health feed mid-solve; the next tick
	// cordons the victim.
	srv.fl.Tick()
	srv.fl.Quiesce()
	st := srv.fl.Stats()
	if st.Cordons != 1 || st.Devices[victim].State != fleet.StateDead {
		return fmt.Errorf("victim not cordoned: cordons %d, state %v", st.Cordons, st.Devices[victim].State)
	}
	return nil
}

func postSolve(ctx context.Context, base string, req solveRequest) (int, *solveResponse, *errorResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/solve", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var sr solveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			return resp.StatusCode, nil, nil, err
		}
		return resp.StatusCode, &sr, nil, nil
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		return resp.StatusCode, nil, nil, err
	}
	return resp.StatusCode, nil, &er, nil
}

func requestFor(b *gputrid.Batch[float64], timeoutMS int) solveRequest {
	return solveRequest{
		M: b.M, N: b.N,
		Lower: b.Lower, Diag: b.Diag, Upper: b.Upper, RHS: b.RHS,
		TimeoutMS: timeoutMS,
	}
}

// checkCorrectness solves batches of several shapes over HTTP and
// demands bitwise identity with the in-process one-shot solve.
func checkCorrectness(ctx context.Context, base string) error {
	for _, shape := range [][2]int{{4, 128}, {16, 512}, {4, 128}} {
		b := workload.Batch[float64](workload.DiagDominant, shape[0], shape[1], 7)
		code, sr, er, err := postSolve(ctx, base, requestFor(b, 0))
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("shape %v: status %d (%+v)", shape, code, er)
		}
		if sr.Route != "device" {
			return fmt.Errorf("shape %v: route %q, want device", shape, sr.Route)
		}
		ref, err := gputrid.SolveBatchCtx(ctx, b)
		if err != nil {
			return err
		}
		if len(sr.X) != len(ref.X) {
			return fmt.Errorf("shape %v: |x| = %d, want %d", shape, len(sr.X), len(ref.X))
		}
		for i := range sr.X {
			if sr.X[i] != ref.X[i] {
				return fmt.Errorf("shape %v: x[%d] = %v, reference %v", shape, i, sr.X[i], ref.X[i])
			}
		}
	}
	return nil
}

// checkOverload fires 4x the pool's total slots (1 active + 1 queued)
// concurrently at one slow shape: every request must finish promptly
// as either a correct 200 or a typed 503, and at least one overload
// rejection must occur.
func checkOverload(ctx context.Context, base string) error {
	b := workload.Batch[float64](workload.DiagDominant, 64, 4096, 11)
	ref, err := gputrid.SolveBatchCtx(ctx, b)
	if err != nil {
		return err
	}
	req := requestFor(b, 0)

	const load = 8
	codes := make([]int, load)
	srs := make([]*solveResponse, load)
	errs := make([]error, load)
	var wg sync.WaitGroup
	for i := 0; i < load; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], srs[i], _, errs[i] = postSolve(ctx, base, req)
		}(i)
	}
	wg.Wait()

	ok, overloaded := 0, 0
	for i, code := range codes {
		if errs[i] != nil {
			return fmt.Errorf("request %d: %w", i, errs[i])
		}
		switch code {
		case http.StatusOK:
			ok++
			for j := range srs[i].X {
				if srs[i].X[j] != ref.X[j] {
					return fmt.Errorf("request %d: x[%d] diverges under load", i, j)
				}
			}
		case http.StatusServiceUnavailable:
			overloaded++
		default:
			return fmt.Errorf("request %d: unexpected status %d", i, code)
		}
	}
	if ok == 0 {
		return fmt.Errorf("no request served under overload")
	}
	if overloaded == 0 {
		return fmt.Errorf("4x load produced no 503s (ok=%d)", ok)
	}
	var stats struct {
		Rejected uint64 `json:"rejected"`
	}
	if err := getJSON(base+"/fleet", &stats); err != nil {
		return err
	}
	if stats.Rejected == 0 {
		return fmt.Errorf("/fleet reports no rejections")
	}
	return nil
}

// checkBreaker arms the fault injector, drives traffic until the
// breaker trips (health reports degraded, solves route to the CPU
// fallback with still-correct results), then disarms it and verifies
// half-open probes close the breaker and traffic returns to the
// device path.
func checkBreaker(ctx context.Context, base string, armed *atomic.Bool) error {
	b := workload.Batch[float64](workload.DiagDominant, 4, 256, 13)
	want, err := gputrid.SolveCPUPivoting(b)
	if err != nil {
		return err
	}
	req := requestFor(b, 0)

	armed.Store(true)
	tripped := false
	for i := 0; i < 64 && !tripped; i++ {
		code, sr, _, err := postSolve(ctx, base, req)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("solve %d under faults: status %d", i, code)
		}
		tripped = sr.Route == "fallback"
	}
	if !tripped {
		return fmt.Errorf("breaker did not trip under sustained faults")
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := getJSON(base+"/healthz", &health); err != nil {
		return err
	}
	if health.Status != "degraded" {
		return fmt.Errorf("health under open breaker: %+v, want degraded", health)
	}
	// Fallback solves stay correct (host pivoting reference). Once the
	// cooldown elapses, half-open probes (device route) may interleave
	// with the fallback traffic — and re-trip, since faults are still
	// armed — so scan for a fallback-served solve rather than assuming
	// the very next one is.
	sawFallback := false
	for i := 0; i < 16 && !sawFallback; i++ {
		code, sr, _, err := postSolve(ctx, base, req)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("open-breaker solve: status %d", code)
		}
		if sr.Route != "fallback" {
			continue // a half-open probe
		}
		sawFallback = true
		for j := range sr.X {
			if sr.X[j] != want[j] {
				return fmt.Errorf("fallback x[%d] = %v, reference %v", j, sr.X[j], want[j])
			}
		}
	}
	if !sawFallback {
		return fmt.Errorf("no fallback-served solve observed while the breaker was open")
	}

	// Heal the device; probes must close the breaker again. The wait is
	// bounded by the selftest context (-timeout), not a raw wall-clock
	// poll, so shortening the deadline genuinely shortens the run.
	armed.Store(false)
	for {
		code, sr, _, err := postSolve(ctx, base, req)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("solve during recovery: status %d", code)
		}
		var health struct {
			Status string `json:"status"`
		}
		if err := getJSON(base+"/healthz", &health); err != nil {
			return err
		}
		if sr.Route == "device" && health.Status == "ok" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("breaker did not recover after faults healed (route %q, health %q): %w",
				sr.Route, health.Status, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// checkDrain closes the fleet gracefully and verifies late requests
// are rejected as draining.
func checkDrain(ctx context.Context, base string, srv *server) error {
	srv.draining.Store(true)
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.close(dctx); err != nil {
		return fmt.Errorf("fleet close: %w", err)
	}
	b := workload.Batch[float64](workload.DiagDominant, 2, 64, 3)
	code, _, er, err := postSolve(ctx, base, requestFor(b, 0))
	if err != nil {
		return err
	}
	if code != http.StatusServiceUnavailable || er == nil || er.Kind != "draining" {
		return fmt.Errorf("post-drain solve: status %d kind %+v, want 503 draining", code, er)
	}
	return nil
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}
