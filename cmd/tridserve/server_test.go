package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
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

// newTestServer serves a server with neither a batcher nor a
// distributed route.
func newTestServer(t *testing.T, cfg fleet.Config) (*server, string) {
	t.Helper()
	return startServer(t, cfg, 0, 0, 0)
}

// startServer serves newServer's routes on an httptest listener; both
// are torn down with the test.
func startServer(t *testing.T, cfg fleet.Config, batchN int, wait time.Duration, distMin int) (*server, string) {
	t.Helper()
	srv, err := newServer(cfg, batchN, wait, distMin)
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

// newBatchServer is newTestServer with the coalescing front end on, as
// tridserve -batch 8 runs it.
func newBatchServer(t *testing.T, cfg fleet.Config, wait time.Duration) (*server, string) {
	t.Helper()
	return startServer(t, cfg, 8, wait, 0)
}

// getFleet decodes GET /fleet into a generic JSON object.
func getFleet(t *testing.T, base string) map[string]any {
	t.Helper()
	var body map[string]any
	if err := getJSON(base+"/fleet", &body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBatchRoutes drives the production coalescing assembly, batcher.New
// over Fleet.SolveMegabatch behind -batch: concurrent 1-system requests
// ride coalesced megabatches and come back bitwise equal to solving
// each alone at k = 0; a request larger than the megabatch capacity is
// served on a device route instead; /fleet reports the batcher.
func TestBatchRoutes(t *testing.T) {
	const n, requests = 64, 12
	// The references solve one at a time, before the server starts.
	batches := make([]*gputrid.Batch[float64], requests)
	refs := make([]*gputrid.Result[float64], requests)
	for i := range batches {
		batches[i] = workload.Batch[float64](workload.DiagDominant, 1, n, uint64(100+i))
		ref, err := gputrid.SolveBatch(batches[i], gputrid.WithK(0))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	big := workload.Batch[float64](workload.DiagDominant, 9, n, 7)
	bigRef, err := gputrid.SolveBatch(big)
	if err != nil {
		t.Fatal(err)
	}
	_, base := newBatchServer(t, fleet.Config{Devices: 2}, 20*time.Millisecond)
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, ref := batches[i], refs[i]
			code, sr, er, err := postSolve(ctx, base, requestFor(b, 0))
			if err != nil || code != http.StatusOK {
				t.Errorf("request %d: %d %+v %v", i, code, er, err)
				return
			}
			if sr.Route != "coalesced" || sr.FlushSize < 1 || sr.Device != -1 {
				t.Errorf("request %d: route %q, flush_size %d, device %d; want coalesced, >= 1, -1",
					i, sr.Route, sr.FlushSize, sr.Device)
			}
			for j := range ref.X {
				if sr.X[j] != ref.X[j] {
					t.Errorf("request %d: x[%d] = %v, want %v bitwise (k = 0 solve alone)", i, j, sr.X[j], ref.X[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()

	ref := bigRef
	code, sr, er, err := postSolve(ctx, base, requestFor(big, 0))
	if err != nil || code != http.StatusOK {
		t.Fatalf("9-system request: %d %+v %v", code, er, err)
	}
	if sr.Route != "device" || sr.Device < 0 {
		t.Fatalf("9-system request: route %q on device %d, want a device route", sr.Route, sr.Device)
	}
	for j := range ref.X {
		if sr.X[j] != ref.X[j] {
			t.Fatalf("9-system request: x[%d] = %v, want %v", j, sr.X[j], ref.X[j])
		}
	}

	bt, ok := getFleet(t, base)["batcher"].(map[string]any)
	if !ok {
		t.Fatal("/fleet has no batcher section with -batch on")
	}
	if got := bt["flushed_systems"]; got != float64(12) {
		t.Fatalf("batcher.flushed_systems = %v, want the 12 coalesced systems", got)
	}
}

// TestFleetKeyContract pins the /fleet keys the load harness reads
// (cmd/tridload/serve.go's fleetSnap). That module has its own go.mod,
// so `go test ./...` never builds it; a renamed key would otherwise
// show up only when the benchmark runs.
func TestFleetKeyContract(t *testing.T) {
	_, base := newBatchServer(t, fleet.Config{Devices: 2}, time.Millisecond)
	b := workload.Batch[float64](workload.DiagDominant, 1, 32, 3)
	if code, _, er, err := postSolve(context.Background(), base, requestFor(b, 0)); err != nil || code != http.StatusOK {
		t.Fatalf("solve: %d %+v %v", code, er, err)
	}
	body := getFleet(t, base)
	number := func(obj map[string]any, path, key string) {
		t.Helper()
		v, ok := obj[key]
		if !ok {
			t.Errorf("/fleet: missing %s", path)
			return
		}
		if _, ok := v.(float64); !ok {
			t.Errorf("/fleet: %s = %v (%T), want a number", path, v, v)
		}
	}
	devices, ok := body["devices"].([]any)
	if !ok || len(devices) != 2 {
		t.Fatalf("/fleet: devices = %v, want a 2-element list", body["devices"])
	}
	for i, d := range devices {
		dev, ok := d.(map[string]any)
		if !ok {
			t.Fatalf("/fleet: devices[%d] = %v, want an object", i, d)
		}
		number(dev, "devices[].served", "served")
	}
	number(body, "rejected", "rejected")
	number(body, "rerouted", "rerouted")
	bt, ok := body["batcher"].(map[string]any)
	if !ok {
		t.Fatal("/fleet: missing batcher")
	}
	for _, k := range []string{
		"flushes_watermark", "flushes_deadline", "flushes_close",
		"flushed_systems", "padded_systems", "saturated",
	} {
		number(bt, "batcher."+k, k)
	}
}

// TestBodyTooLarge: a body over its endpoint's cap is refused with 413
// and an errorResponse, and the server keeps serving. The inject body
// streams without a Content-Length, so the cap trips while reading;
// the solve body declares its oversize length, which is refused before
// any of it is read.
func TestBodyTooLarge(t *testing.T) {
	srv, base := newTestServer(t, fleet.Config{Devices: 1})
	tooLarge := func(code int, body []byte) {
		t.Helper()
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("413 body %q: %v", body, err)
		}
		if code != http.StatusRequestEntityTooLarge || er.Kind != "too-large" {
			t.Fatalf("over-cap body: %d %+v, want 413 too-large", code, er)
		}
	}

	// A valid inject object whose message alone exceeds the cap.
	big := io.MultiReader(
		strings.NewReader(`{"device":0,"kind":"healed","message":"`),
		strings.NewReader(strings.Repeat("x", maxInjectBody)),
		strings.NewReader(`"}`),
	)
	hreq, err := http.NewRequest(http.MethodPost, base+"/fleet/inject", big)
	if err != nil {
		t.Fatal(err)
	}
	hreq.ContentLength = -1 // unknown: sent chunked
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	tooLarge(resp.StatusCode, body)
	if code, resp := post(t, base+"/fleet/inject", `{"device":0,"kind":"healed"}`); code != http.StatusAccepted {
		t.Fatalf("inject after a 413: %d %s, want 202", code, resp)
	}

	req := httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(`{}`))
	req.ContentLength = maxSolveBody + 1
	rec := httptest.NewRecorder()
	srv.routes().ServeHTTP(rec, req)
	tooLarge(rec.Code, rec.Body.Bytes())
	b := workload.Batch[float64](workload.DiagDominant, 2, 16, 1)
	if code, _, er, err := postSolve(context.Background(), base, requestFor(b, 0)); err != nil || code != http.StatusOK {
		t.Fatalf("solve after a 413: %d %+v %v", code, er, err)
	}
}

// TestVerdictSameOnEveryRoute: the device, coalesced and distributed
// routes judge each system with the one pool verdict. A nonsingular
// system whose leading pivot vanishes (the non-pivoting fast path and
// slab elimination divide by it) is rescued on the host pivoting path
// and answers 200 with the same bits and "rescued":1 on every route;
// an all-zero matrix with a non-zero right-hand side answers a typed
// 422 on each.
func TestVerdictSameOnEveryRoute(t *testing.T) {
	const (
		rescuable = `{"m":1,"n":4,"lower":[0,1,1,1],"diag":[0,2,2,2],"upper":[1,1,1,0],"rhs":[1,1,1,1]}`
		singular  = `{"m":1,"n":4,"lower":[0,0,0,0],"diag":[0,0,0,0],"upper":[0,0,0,0],"rhs":[1,1,1,1]}`
	)
	_, device := newTestServer(t, fleet.Config{Devices: 1})
	_, coalesced := newBatchServer(t, fleet.Config{Devices: 1}, time.Millisecond)
	_, distributed := startServer(t, fleet.Config{Devices: 2}, 0, 0, 4)
	routes := []struct{ name, base string }{{"device", device}, {"coalesced", coalesced}, {"distributed", distributed}}
	xs := make([][]float64, len(routes))
	for k, route := range routes {
		code, body := post(t, route.base+"/solve", rescuable)
		var sr solveResponse
		if err := json.Unmarshal([]byte(body), &sr); code != http.StatusOK || err != nil || sr.Route != route.name {
			t.Fatalf("%s route, rescuable system: %d %q (%v), want 200 on route %s", route.name, code, body, err, route.name)
		}
		if len(sr.X) != 4 || sr.Rescued != 1 {
			t.Fatalf("%s route: |x| = %d, rescued = %d; want 4 and 1", route.name, len(sr.X), sr.Rescued)
		}
		xs[k] = sr.X
		code, body = post(t, route.base+"/solve", singular)
		var er errorResponse
		if err := json.Unmarshal([]byte(body), &er); code != http.StatusUnprocessableEntity || err != nil || er.Kind != "unsolvable" {
			t.Fatalf("%s route, singular system: %d %q (%v), want 422 unsolvable", route.name, code, body, err)
		}
	}
	for k := 1; k < len(routes); k++ {
		for j := range xs[0] {
			if xs[0][j] != xs[k][j] {
				t.Fatalf("x[%d]: device %v, %s %v; want the same rescued bits", j, xs[0][j], routes[k].name, xs[k][j])
			}
		}
	}
}

// TestUnencodableAnswer: an answer JSON cannot carry (NaN) is a typed
// 500, not a 200 with an empty body.
func TestUnencodableAnswer(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, solveResponse{X: []float64{1, math.NaN()}})
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil || er.Kind != "unencodable" {
		t.Fatalf("NaN answer: %d %q (%v), want 500 unencodable", rec.Code, rec.Body, err)
	}
}
