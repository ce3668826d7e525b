package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"gputrid"
	"gputrid/internal/batcher"
	"gputrid/internal/fleet"
	"gputrid/internal/gpusim"
)

// fleetTickInterval drives the live control loop; cordon/heal and
// autoscaling decisions are evaluated at this cadence.
const fleetTickInterval = 250 * time.Millisecond

// Request-body caps. A larger body is refused with 413 before it is
// decoded in full, so one client cannot make the server buffer an
// unbounded JSON document. The /solve cap is over ten times the JSON
// of a 64-system, 1024-row batch (about 5 MB).
const (
	maxSolveBody  = 64 << 20
	maxInjectBody = 64 << 10
)

// solveRequest is the JSON body of POST /solve: one M x N batch in
// natural order (row j of system i at index i*N+j), with an optional
// per-request timeout the pool's admission controller can reject
// against early.
type solveRequest struct {
	M         int       `json:"m"`
	N         int       `json:"n"`
	Lower     []float64 `json:"lower"`
	Diag      []float64 `json:"diag"`
	Upper     []float64 `json:"upper"`
	RHS       []float64 `json:"rhs"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
}

// solveResponse is the success body: the solution, how it was served
// and where.
type solveResponse struct {
	X      []float64 `json:"x"`
	Route  string    `json:"route"`
	WaitNS int64     `json:"wait_ns"`
	WallNS int64     `json:"wall_ns"`
	// FlushSize appears only on coalesced responses (-batch): the
	// total system count of the megabatch this request rode in.
	// Rescued, on every route, counts the request's systems the verdict
	// re-solved on the host pivoting path (absent when none was).
	FlushSize int `json:"flush_size,omitempty"`
	Rescued   int `json:"rescued,omitempty"`
	// Device is the id of the device that served the request (-1 on
	// the coalesced and distributed routes, where no single device
	// did); Attempts is how many devices were tried (>1 means a
	// re-route saved it).
	Device   int `json:"device"`
	Attempts int `json:"attempts"`
	// Distributed-route extras (route "distributed" only): the devices
	// the solve started on, any declared dead mid-solve, and how many
	// slabs migrated to survivors.
	DistDevices    []int `json:"dist_devices,omitempty"`
	DistDeaths     []int `json:"dist_deaths,omitempty"`
	DistMigrations int   `json:"dist_migrations,omitempty"`
}

// errorResponse is every non-200 body.
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	// RetryAfterMS hints when an overloaded request could succeed
	// (also sent as a Retry-After header).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// injectRequest is the body of POST /fleet/inject: one synthetic
// device health event, applied by the next control-loop tick.
type injectRequest struct {
	Device  int     `json:"device"`
	Kind    string  `json:"kind"`
	XID     int     `json:"xid,omitempty"`
	Temp    float64 `json:"temp,omitempty"`
	Message string  `json:"message,omitempty"`
}

// server ties the HTTP front end to the fleet control plane: requests
// route to the least-loaded healthy device, device-local failures
// re-route, and operators observe and drive the control plane over
// HTTP. A one-device fleet is the plain serving pool behind the same
// handlers.
type server struct {
	fl       *fleet.Fleet
	draining atomic.Bool
	// maxTimeout caps client-requested per-solve timeouts.
	maxTimeout time.Duration
	// batcher, when non-nil, coalesces small concurrent requests into
	// megabatches routed through Fleet.SolveMegabatch (-batch).
	batcher *batcher.Batcher[float64]
	// distMinN, when positive, routes requests with n >= distMinN to
	// the distributed multi-device solve instead of a single device's
	// pool (-distmin): the system is slab-partitioned across every
	// servable device and survives device death mid-solve.
	distMinN int
}

// newServer builds the fleet and, when batchN > 0, the coalescing
// front end over it.
func newServer(cfg fleet.Config, batchN int, batchWait time.Duration, distMin int) (*server, error) {
	fl, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &server{fl: fl, maxTimeout: time.Minute, distMinN: distMin}
	if batchN > 0 {
		s.batcher, err = batcher.New(batcher.Config[float64]{
			MaxBatch: batchN,
			MaxWait:  batchWait,
			Solve:    fl.SolveMegabatch,
		})
		if err != nil {
			_ = fl.Close(context.Background())
			return nil, err
		}
	}
	return s, nil
}

// close flushes and completes parked coalesced flights, then drains
// the fleet beneath them under ctx.
func (s *server) close(ctx context.Context) error {
	if s.batcher != nil {
		s.batcher.Close()
	}
	return s.fl.Close(ctx)
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.HandleFunc("POST /fleet/inject", s.handleInject)
	return mux
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", 0)
		return
	}
	var req solveRequest
	if !decodeBody(w, r, maxSolveBody, &req) {
		return
	}
	b := &gputrid.Batch[float64]{
		M: req.M, N: req.N,
		Lower: req.Lower, Diag: req.Diag, Upper: req.Upper, RHS: req.RHS,
	}
	if err := b.CheckShape(); err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		d := min(time.Duration(req.TimeoutMS)*time.Millisecond, s.maxTimeout)
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	if s.distMinN > 0 && req.N >= s.distMinN {
		res, err := s.fl.SolveDistributed(ctx, b)
		if err != nil {
			writeSolveError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, solveResponse{
			X:              res.X,
			Route:          "distributed",
			WallNS:         int64(res.Report.ModeledPipelined),
			Rescued:        res.Rescued,
			Device:         -1,
			Attempts:       1,
			DistDevices:    res.Live,
			DistDeaths:     res.Report.Deaths,
			DistMigrations: res.Report.Migrations,
		})
		return
	}

	if s.batcher != nil && req.M <= s.batcher.MaxBatch() {
		x := make([]float64, len(req.RHS))
		cres, err := s.batcher.Solve(ctx, &batcher.Request[float64]{
			M: req.M, N: req.N,
			Lower: req.Lower, Diag: req.Diag, Upper: req.Upper, RHS: req.RHS,
			X: x,
		})
		if err != nil {
			writeSolveError(w, err)
			return
		}
		// A coalesced flight may ride any device (and re-route as a
		// unit), so no single device id is reported.
		writeJSON(w, http.StatusOK, solveResponse{
			X:         x,
			Route:     "coalesced",
			WaitNS:    int64(cres.Wait),
			FlushSize: cres.FlushSize,
			Rescued:   cres.Rescued,
			Device:    -1,
			Attempts:  1,
		})
		return
	}

	res, err := s.fl.Solve(ctx, b)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, solveResponse{
		X:        res.X,
		Route:    res.Route.String(),
		WaitNS:   int64(res.Wait),
		WallNS:   int64(res.WallTime),
		Rescued:  res.Rescued,
		Device:   res.Device,
		Attempts: res.Attempts,
	})
}

// retryAfterMS derives a 503 retry hint from the rejection's EstWait —
// the admission controller's wait estimate from the shape's EWMA
// service time — or a conservative 50ms when the shape has never been
// observed or the rejection carries no estimate.
func retryAfterMS(err error) int64 {
	var oe *gputrid.OverloadError
	if !errors.As(err, &oe) || oe.EstWait <= 0 {
		return 50
	}
	return max(int64(oe.EstWait/time.Millisecond), 1)
}

// writeSolveError maps fleet and pool errors onto HTTP status codes.
// "No servable device" is a 503 too — the fleet may heal or scale up.
func writeSolveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, gputrid.ErrOverloaded), errors.Is(err, batcher.ErrSaturated):
		writeError(w, http.StatusServiceUnavailable, "overloaded", err.Error(), retryAfterMS(err))
	case errors.Is(err, fleet.ErrNoDevices):
		writeError(w, http.StatusServiceUnavailable, "no-device", err.Error(),
			int64(fleetTickInterval/time.Millisecond))
	case errors.Is(err, fleet.ErrFleetClosed), errors.Is(err, gputrid.ErrPoolClosed),
		errors.Is(err, batcher.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "draining", err.Error(), 0)
	case errors.Is(err, gputrid.ErrCancelled):
		writeError(w, http.StatusGatewayTimeout, "cancelled", err.Error(), 0)
	case errors.Is(err, gputrid.ErrFaulted):
		writeError(w, http.StatusInternalServerError, "faulted", err.Error(), 0)
	case errors.Is(err, gputrid.ErrUnrecoverable):
		writeError(w, http.StatusUnprocessableEntity, "unsolvable", err.Error(), 0)
	default:
		writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.fl.Stats()
	body := struct {
		Status   string `json:"status"`
		Servable int    `json:"servable"`
	}{Status: "ok", Servable: st.Census.Servable()}
	code := http.StatusOK
	switch {
	case s.draining.Load():
		body.Status = "draining"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.FormatInt((defaultRetryAfterMS+999)/1000, 10))
	case body.Servable == 0:
		// Everything cordoned/dead: unhealthy until a heal or scale-up
		// — which the next control-loop ticks decide, hence the hint.
		body.Status = "no-device"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case st.Degraded():
		// Degraded but healthy: the instance still serves (off a
		// probation or throttled device, or a pool's CPU fallback), so
		// it must keep receiving traffic.
		body.Status = "degraded"
	}
	writeJSON(w, code, body)
}

// handleFleet writes the fleet snapshot, whose tagged fields (with the
// pool and batcher snapshots beneath them) are the /fleet schema.
func (s *server) handleFleet(w http.ResponseWriter, r *http.Request) {
	body := struct {
		fleet.Stats
		Batcher *batcher.Stats `json:"batcher,omitempty"`
	}{Stats: s.fl.Stats()}
	if s.batcher != nil {
		bs := s.batcher.Stats()
		body.Batcher = &bs
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleInject(w http.ResponseWriter, r *http.Request) {
	var req injectRequest
	if !decodeBody(w, r, maxInjectBody, &req) {
		return
	}
	kind, err := gpusim.ParseHealthKind(req.Kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	ev := gpusim.HealthEvent{
		Device: req.Device, Kind: kind,
		XID: req.XID, Temp: req.Temp, Message: req.Message,
	}
	s.fl.Inject(ev)
	writeJSON(w, http.StatusAccepted, struct {
		Accepted string `json:"accepted"`
		Note     string `json:"note"`
	}{ev.String(), "applied by the next control-loop tick"})
}

// decodeBody strictly decodes r's JSON body into v, reading at most
// limit bytes. On failure it writes the error response — 413 for a
// body over the cap, whether declared by Content-Length or found while
// reading, 400 for anything else — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "too-large",
			fmt.Sprintf("request body exceeds %d bytes", limit), 0)
	default:
		writeError(w, http.StatusBadRequest, "bad-request", "invalid JSON: "+err.Error(), 0)
	}
	return false
}

// writeJSON encodes body before it commits to code, so a body JSON
// cannot carry (a solution with a NaN or Inf entry) is answered with a
// typed 500 "unencodable" error instead of code and an empty body.
func writeJSON(w http.ResponseWriter, code int, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = json.Marshal(errorResponse{Error: "response not encodable: " + err.Error(), Kind: "unencodable"})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n'))
}

// defaultRetryAfterMS is the Retry-After hint for 503s with no better
// congestion estimate — draining drains in seconds, a dead fleet heals
// or scales on the next ticks — so clients always get a concrete wait
// instead of having to invent their own backoff.
const defaultRetryAfterMS = 1000

func writeError(w http.ResponseWriter, code int, kind, msg string, retryAfterMS int64) {
	// Every 503 advises a wait: a 503 always means "try again later",
	// and a hint-less one pushes the backoff guesswork onto clients.
	if code == http.StatusServiceUnavailable && retryAfterMS <= 0 {
		retryAfterMS = defaultRetryAfterMS
	}
	if retryAfterMS > 0 {
		secs := (retryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, code, errorResponse{Error: msg, Kind: kind, RetryAfterMS: retryAfterMS})
}

// parseWarmShapes parses "-warm 64:1024,16:4096".
func parseWarmShapes(spec string) ([][2]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out [][2]int
	for _, part := range strings.Split(spec, ",") {
		mn := strings.Split(strings.TrimSpace(part), ":")
		if len(mn) != 2 {
			return nil, fmt.Errorf("bad -warm entry %q (want M:N)", part)
		}
		m, err1 := strconv.Atoi(mn[0])
		n, err2 := strconv.Atoi(mn[1])
		if err1 != nil || err2 != nil || m <= 0 || n <= 0 {
			return nil, fmt.Errorf("bad -warm entry %q (want positive M:N)", part)
		}
		out = append(out, [2]int{m, n})
	}
	return out, nil
}

// serve runs the HTTP front end over a fleet built from cfg, with a
// wall-clock ticker driving the control loop, until SIGINT/SIGTERM.
// Then it drains: the listener stops accepting, in-flight requests
// finish, parked coalesced flights flush, and every device pool closes
// gracefully (force-cancelling stragglers after a bounded window).
func serve(addr string, cfg fleet.Config, batchN int, batchWait time.Duration, distMin int) error {
	srv, err := newServer(cfg, batchN, batchWait, distMin)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		_ = srv.close(context.Background())
		return err
	}

	stopTicks := make(chan struct{})
	go func() {
		tk := time.NewTicker(fleetTickInterval)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				srv.fl.Tick()
			case <-stopTicks:
				return
			}
		}
	}()

	hs := &http.Server{Handler: srv.routes()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Printf("tridserve: fleet of %d device(s) listening on %s (capacity %d/shape/device)\n",
		cfg.Devices, ln.Addr(), cfg.Pool.Capacity)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err = <-errCh:
	case <-sig:
		fmt.Println("tridserve: draining...")
	}
	srv.draining.Store(true)
	close(stopTicks)
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(shCtx)
	if cerr := srv.close(shCtx); cerr != nil {
		fmt.Fprintf(os.Stderr, "tridserve: drain: %v\n", cerr)
	}
	return err
}
