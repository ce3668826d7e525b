package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"gputrid/internal/fleet"
	"gputrid/internal/workload"
)

// keyPaths lists every key path of the JSON document body with its
// JSON kind, one "path kind" string each, sorted and deduplicated.
// Array elements share the path "array[]", so a list's entries
// contribute the union of their shapes.
func keyPaths(t *testing.T, body []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		kind := "null"
		switch v := v.(type) {
		case map[string]any:
			kind = "object"
			for k, e := range v {
				walk(strings.TrimPrefix(path+"."+k, "."), e)
			}
		case []any:
			kind = "array"
			for _, e := range v {
				walk(path+"[]", e)
			}
		case string:
			kind = "string"
		case float64:
			kind = "number"
		case bool:
			kind = "bool"
		}
		if path != "" {
			seen[path+" "+kind] = true
		}
	}
	walk("", doc)
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// checkShape compares a response's key paths with want, naming every
// path that appeared or went missing.
func checkShape(t *testing.T, what string, body []byte, want []string) {
	t.Helper()
	got := keyPaths(t, body)
	for _, p := range got {
		if !slices.Contains(want, p) {
			t.Errorf("%s: unexpected %q", what, p)
		}
	}
	for _, p := range want {
		if !slices.Contains(got, p) {
			t.Errorf("%s: missing %q", what, p)
		}
	}
}

// TestWireShape pins the JSON shape of /fleet, /healthz and
// /fleet/inject: every key path with its leaf's kind. The /fleet body
// comes from a 2-device server with the coalescing front end on, after
// one solve, so the pool, per-shape, breaker and batcher queue
// sections are all populated.
func TestWireShape(t *testing.T) {
	_, base := newBatchServer(t, fleet.Config{Devices: 2}, time.Millisecond)
	b := workload.Batch[float64](workload.DiagDominant, 1, 32, 3)
	if code, _, er, err := postSolve(context.Background(), base, requestFor(b, 0)); err != nil || code != http.StatusOK {
		t.Fatalf("solve: %d %+v %v", code, er, err)
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return body
	}

	checkShape(t, "/fleet", get("/fleet"), []string{
		"batcher object",
		"batcher.admitted number",
		"batcher.admitted_systems number",
		"batcher.cancelled_waits number",
		"batcher.failed_flushes number",
		"batcher.flushed_systems number",
		"batcher.flushes_close number",
		"batcher.flushes_deadline number",
		"batcher.flushes_watermark number",
		"batcher.max_flush_systems number",
		"batcher.padded_systems number",
		"batcher.pending_systems number",
		"batcher.queues array",
		"batcher.queues[] object",
		"batcher.queues[].flights number",
		"batcher.queues[].n number",
		"batcher.queues[].pending number",
		"batcher.saturated number",
		"batcher.shapes number",
		"build_failures number",
		"census object",
		"census.active number",
		"census.cordoned number",
		"census.dead number",
		"census.deprioritized number",
		"census.probation number",
		"census.standby number",
		"cordons number",
		"devices array",
		"devices[] object",
		"devices[].corrected_ecc number",
		"devices[].failed number",
		"devices[].gray object",
		"devices[].gray.hedged_slabs number",
		"devices[].gray.integrity_retries number",
		"devices[].gray.latency_ratio number",
		"devices[].id number",
		"devices[].in_flight number",
		"devices[].pool object",
		"devices[].pool.admitted number",
		"devices[].pool.breaker object",
		"devices[].pool.breaker.probe_streak number",
		"devices[].pool.breaker.state string",
		"devices[].pool.breaker.trips number",
		"devices[].pool.breaker.window_degraded number",
		"devices[].pool.breaker.window_fill number",
		"devices[].pool.cancelled_waits number",
		"devices[].pool.device_solves number",
		"devices[].pool.fallback_solves number",
		"devices[].pool.in_flight number",
		"devices[].pool.per_shape array",
		"devices[].pool.per_shape[] object",
		"devices[].pool.per_shape[].built number",
		"devices[].pool.per_shape[].leased number",
		"devices[].pool.per_shape[].m number",
		"devices[].pool.per_shape[].mega bool",
		"devices[].pool.per_shape[].n number",
		"devices[].pool.per_shape[].queue_depth number",
		"devices[].pool.per_shape[].service_time_ns number",
		"devices[].pool.probe_solves number",
		"devices[].pool.queue_depth number",
		"devices[].pool.rejected_closed number",
		"devices[].pool.rejected_deadline number",
		"devices[].pool.rejected_queue_full number",
		"devices[].pool.shapes number",
		"devices[].served number",
		"devices[].state string",
		"distributed object",
		"distributed.deaths number",
		"distributed.degraded number",
		"distributed.hedge_wins number",
		"distributed.hedges number",
		"distributed.integrity_retries number",
		"distributed.migrations number",
		"distributed.solves number",
		"events number",
		"forced_drains number",
		"gray object",
		"gray.flaky_links_flagged number",
		"gray.stragglers_flagged number",
		"heals number",
		"in_flight number",
		"no_device number",
		"queue_depth number",
		"rejected number",
		"rerouted number",
		"scale_downs number",
		"scale_ups number",
		"served number",
	})

	checkShape(t, "/healthz", get("/healthz"), []string{
		"servable number",
		"status string",
	})

	code, body := post(t, base+"/fleet/inject", `{"device":1,"kind":"thermal","temp":90}`)
	if code != http.StatusAccepted {
		t.Fatalf("inject: %d %s, want 202", code, body)
	}
	checkShape(t, "/fleet/inject", []byte(body), []string{
		"accepted string",
		"note string",
	})
}
