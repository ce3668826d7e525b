package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gputrid"
	"gputrid/internal/fleet"
	"gputrid/internal/workload"
)

// newTestServer serves srv's routes on an httptest listener; both are
// torn down with the test.
func newTestServer(t *testing.T, cfg fleet.Config) (*server, string) {
	t.Helper()
	srv, err := newServer(cfg, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.close(context.Background())
	})
	return srv, ts.URL
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestSolveWrappedShape: m*n = 2^64 wraps int to 0, which empty arrays
// satisfy when the shape check multiplies; the solve then slices out
// of range after the router has counted the request in flight. It
// must be a 400 that never reaches a device.
func TestSolveWrappedShape(t *testing.T) {
	srv, base := newTestServer(t, fleet.Config{Devices: 1})
	code, body := post(t, base+"/solve",
		`{"m":4294967296,"n":4294967296,"lower":[],"diag":[],"upper":[],"rhs":[]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, `"bad-request"`) {
		t.Fatalf("wrapped shape: %d %s, want 400 bad-request", code, body)
	}
	st := srv.fl.Stats()
	if st.InFlight != 0 || st.Devices[0].InFlight != 0 {
		t.Fatalf("in-flight after rejected request: fleet %d, device %d, want 0",
			st.InFlight, st.Devices[0].InFlight)
	}
}

// TestSolveMalformedBody: bodies that do not decode into a request
// are 400s.
func TestSolveMalformedBody(t *testing.T) {
	_, base := newTestServer(t, fleet.Config{Devices: 1})
	for _, body := range []string{
		`{"m":`,
		`{"m":1,"n":2,"bogus":true}`,
		`{"m":1,"n":2,"lower":[0,1],"diag":[4,4],"upper":[1,0],"rhs":[1]}`,
	} {
		if code, resp := post(t, base+"/solve", body); code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", body, code, resp)
		}
	}
}

// TestHealthDegradedOpenBreaker: a one-device fleet whose breaker has
// tripped still serves off the CPU fallback, so /healthz reads
// "degraded" with a 200.
func TestHealthDegradedOpenBreaker(t *testing.T) {
	inj := &gputrid.FaultInjector{
		Seed: 42, Rate: 0.9, Repeat: 1,
		Kinds: []gputrid.DeviceFaultKind{gputrid.FaultAbort},
	}
	_, base := newTestServer(t, fleet.Config{Devices: 1, Pool: gputrid.PoolConfig{
		Capacity: 1,
		Breaker: gputrid.BreakerPolicy{
			Window: 8, TripRatio: 0.5, MinSamples: 4,
			Cooldown: time.Hour, ProbeSuccesses: 2,
		},
		SolverOptions: []gputrid.Option{gputrid.WithFaultInjection(inj)},
	}})
	ctx := context.Background()
	req := requestFor(workload.Batch[float64](workload.DiagDominant, 4, 256, 13), 0)
	tripped := false
	for i := 0; i < 64 && !tripped; i++ {
		code, sr, er, err := postSolve(ctx, base, req)
		if err != nil || code != http.StatusOK {
			t.Fatalf("solve %d under faults: %d %+v %v", i, code, er, err)
		}
		tripped = sr.Route == "fallback"
	}
	if !tripped {
		t.Fatal("breaker did not trip under sustained faults")
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "degraded" {
		t.Fatalf("health with the only breaker open: %d %q, want 200 degraded", resp.StatusCode, health.Status)
	}
}

// TestQueueFullRetryAfter: a queue-full 503 carries the pool's
// congestion estimate — one EWMA service time per request ahead of it
// — not the 50ms floor for shapes never observed.
func TestQueueFullRetryAfter(t *testing.T) {
	const m, n = 4, 128
	// The gate parks the first solve mid-flight, holding the only
	// solver, until release closes.
	var hold atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	inj := &gputrid.FaultInjector{Gate: func() bool {
		if hold.Load() {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		}
		return false
	}}
	srv, base := newTestServer(t, fleet.Config{
		Devices:    1,
		WarmShapes: [][2]int{{m, n}},
		Pool: gputrid.PoolConfig{
			Capacity: 1, QueueLimit: 1,
			SolverOptions: []gputrid.Option{gputrid.WithFaultInjection(inj)},
		},
	})
	var once sync.Once
	unhold := func() { once.Do(func() { hold.Store(false); close(release) }) }
	t.Cleanup(unhold) // registered after the server's: runs first
	ctx := context.Background()
	req := requestFor(workload.Batch[float64](workload.DiagDominant, m, n, 5), 0)
	// One completed solve seeds the shape's service-time EWMA.
	if code, _, er, err := postSolve(ctx, base, req); err != nil || code != http.StatusOK {
		t.Fatalf("seeding solve: %d %+v %v", code, er, err)
	}
	hold.Store(true)
	done := make(chan int, 2)
	solve := func() {
		code, _, _, err := postSolve(ctx, base, req)
		if err != nil {
			t.Error(err)
		}
		done <- code
	}
	go solve()
	<-entered
	go solve()
	for srv.fl.Stats().QueueDepth != 1 {
		time.Sleep(time.Millisecond)
	}

	var svc time.Duration
	for _, sh := range srv.fl.Stats().Devices[0].Pool.PerShape {
		if sh.M == m && sh.N == n && !sh.Mega {
			svc = sh.ServiceTime
		}
	}
	if svc <= 0 {
		t.Fatalf("shape %dx%d has no service-time estimate", m, n)
	}
	want := max(int64(2*svc/time.Millisecond), 1) // svc × (queue depth 1 + 1)

	code, _, er, err := postSolve(ctx, base, req)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || er.Kind != "overloaded" {
		t.Fatalf("third request: %d %+v, want 503 overloaded", code, er)
	}
	if er.RetryAfterMS != want || want == 50 {
		t.Fatalf("retry_after_ms = %d, want %d from the EWMA (svc %v), not the 50ms floor",
			er.RetryAfterMS, want, svc)
	}

	unhold()
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("held request: status %d, want 200", code)
		}
	}
}
