package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"gputrid/internal/batcher"
	"gputrid/internal/core"
	"gputrid/internal/fleet"
)

// httpConns is how many connections the serve-http client holds.
const httpConns = 2

// buildTridserve builds cmd/tridserve from the repository's source and
// returns the binary and the seconds the build took.
func buildTridserve(e *env) (string, float64, error) {
	bin := filepath.Join(e.bindir, "tridserve")
	cmd := command("go", "build", "-o", bin, "./cmd/tridserve")
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = e.log, e.log
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building tridserve: %w", err)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// server is one running tridserve process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	ctl    *http.Client // health and stats requests, apart from the load
	gc     gcLog
	exited chan struct{}
	err    error // the process's exit status, once exited is closed
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// startServer starts tridserve and returns once it answers /healthz.
// With gctrace the Go runtime reports every GC cycle on stderr, which
// the server's gcLog collects.
func startServer(bin string, args []string, gctrace bool, log io.Writer) (*server, error) {
	cmd := command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), ctl: &http.Client{Timeout: 10 * time.Second}}
	addr := make(chan string, 1)
	var pipes sync.WaitGroup
	pipes.Add(2)
	go func() {
		defer pipes.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	go func() {
		defer pipes.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if ev, ok := parseGCLine(sc.Text(), time.Now()); ok {
				s.gc.add(ev)
			} else {
				fmt.Fprintf(log, "tridserve: %s\n", sc.Text())
			}
		}
	}()
	go func() {
		pipes.Wait()
		s.err = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-addr:
	case <-s.exited:
		return nil, fmt.Errorf("tridserve exited before listening: %v", s.err)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("tridserve did not listen within 30s")
	}
	for i := 0; ; i++ {
		resp, err := s.ctl.Get("http://" + s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i == 100 {
			s.stop()
			return nil, fmt.Errorf("tridserve not healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, as an operator would, and waits
// for it to exit; past 15s it is killed.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// fleetSnap is the part of GET /fleet the benchmark reads.
type fleetSnap struct {
	Devices []struct {
		Served uint64 `json:"served"`
	} `json:"devices"`
	Rejected uint64 `json:"rejected"`
	Rerouted uint64 `json:"rerouted"`
	Batcher  struct {
		FlushesWatermark uint64 `json:"flushes_watermark"`
		FlushesDeadline  uint64 `json:"flushes_deadline"`
		FlushesClose     uint64 `json:"flushes_close"`
		FlushedSystems   uint64 `json:"flushed_systems"`
		PaddedSystems    uint64 `json:"padded_systems"`
		Saturated        uint64 `json:"saturated"`
	} `json:"batcher"`
}

// stats converts the snapshot to the counters the in-process workloads
// read from Fleet.Stats and Batcher.Stats, so both reach the metrics
// through setFleet and setBatcher.
func (f *fleetSnap) stats() (fleet.Stats, batcher.Stats) {
	fs := fleet.Stats{Rejected: f.Rejected, Rerouted: f.Rerouted}
	for _, d := range f.Devices {
		fs.Devices = append(fs.Devices, fleet.DeviceStats{Served: d.Served})
	}
	b := f.Batcher
	return fs, batcher.Stats{
		FlushesWatermark: b.FlushesWatermark, FlushesDeadline: b.FlushesDeadline, FlushesClose: b.FlushesClose,
		FlushedSystems: b.FlushedSystems, PaddedSystems: b.PaddedSystems, Saturated: b.Saturated,
	}
}

func (s *server) fleet() (fleetSnap, error) {
	var f fleetSnap
	resp, err := s.ctl.Get("http://" + s.addr + "/fleet")
	if err != nil {
		return f, err
	}
	defer resp.Body.Close()
	return f, json.NewDecoder(resp.Body).Decode(&f)
}

// httpRec is one request as the client saw it. The response body is
// kept and decoded after the phase, off the latency clock. The
// timestamps are taken only in traced runs.
type httpRec struct {
	status                       int
	resp                         []byte
	respLen                      int
	start, wrote, firstByte, end time.Time
	newConn                      bool
	route                        string
	waitNS, wallNS               int64
}

// client is the load generator's HTTP client: at most httpConns
// keep-alive connections to one server.
type client struct {
	c   *http.Client
	url string
}

func newClient(addr string) *client {
	return &client{
		c: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     httpConns,
			MaxIdleConnsPerHost: httpConns,
			DisableCompression:  true,
		}},
		url: "http://" + addr + "/solve",
	}
}

func (c *client) close() { c.c.CloseIdleConnections() }

func (c *client) post(body []byte, rec *httpRec, traced bool) error {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		rec.start = time.Now()
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn:              func(info httptrace.GotConnInfo) { rec.newConn = !info.Reused },
			WroteRequest:         func(httptrace.WroteRequestInfo) { rec.wrote = time.Now() },
			GotFirstResponseByte: func() { rec.firstByte = time.Now() },
		}))
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return err
	}
	rec.resp, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.status, rec.respLen = resp.StatusCode, len(rec.resp)
	if traced {
		rec.end = time.Now()
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// httpPhase is one open-loop phase against the server.
type httpPhase struct {
	res       *openResult
	picks     []*body
	recs      []httpRec
	cpu       time.Duration // server CPU during the phase
	fleet     [2]fleetSnap
	from, to  time.Time
	incorrect int
	rejected  int // 503s the pool's admission control sent
}

func (c *client) phase(s *server, picks []*body, sched []time.Duration, d, grace time.Duration, traced bool) (*httpPhase, error) {
	p := &httpPhase{picks: picks, recs: make([]httpRec, len(sched))}
	var err error
	if p.fleet[0], err = s.fleet(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	p.from = time.Now()
	p.res = runWorkers(sched, d, grace, httpConns, func(i int) error {
		return c.post(picks[i].json, &p.recs[i], traced)
	})
	p.to = time.Now()
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if p.fleet[1], err = s.fleet(); err != nil {
		return nil, err
	}
	p.check()
	return p, nil
}

// solveReply is the part of a /solve response the benchmark reads.
type solveReply struct {
	X      []float64 `json:"x"`
	Route  string    `json:"route"`
	WaitNS int64     `json:"wait_ns"`
	WallNS int64     `json:"wall_ns"`
	Kind   string    `json:"kind"`
}

// check decodes every response, compares each solution with its body's
// reference, and drops the raw bytes.
func (p *httpPhase) check() {
	for i := range p.recs {
		rec := &p.recs[i]
		if rec.resp == nil {
			continue
		}
		var r solveReply
		err := json.Unmarshal(rec.resp, &r)
		switch {
		case rec.status == http.StatusOK:
			if err != nil || !(relErr(r.X, p.picks[i].ref) <= tolerance) {
				p.incorrect++
			}
			rec.route, rec.waitNS, rec.wallNS = r.Route, r.WaitNS, r.WallNS
		case r.Kind == "overloaded":
			p.rejected++
		}
		rec.resp = nil
	}
}

// warm sends one request of each class and checks the answers.
func warm(c *client, bodies bodySet) error {
	for _, bs := range bodies {
		if len(bs) == 0 {
			continue
		}
		var rec httpRec
		if err := c.post(bs[0].json, &rec, false); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
		var r solveReply
		if err := json.Unmarshal(rec.resp, &r); err != nil || !(relErr(r.X, bs[0].ref) <= tolerance) {
			return errors.New("warm-up request answered incorrectly")
		}
	}
	return nil
}

func runServeHTTP(e *env, w *workloadSpec) (*outcome, error) {
	o := newOutcome()
	bin, buildS, err := buildTridserve(e)
	if err != nil {
		return nil, err
	}
	bodies, err := buildBodies(e.seed, 16, w.share)
	if err != nil {
		return nil, err
	}

	// Set-up: start → listening → healthy → one answered request per
	// class, in setupRuns fresh processes; the last one is measured.
	var s *server
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if s, err = startServer(bin, w.serverArgs, e.trace, e.log); err != nil {
			return nil, err
		}
		c := newClient(s.addr)
		err = warm(c, bodies)
		c.close()
		if err != nil {
			s.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if e.trace {
			break
		}
		if i < setupRuns-1 {
			s.stop()
		}
	}
	defer s.stop()
	c := newClient(s.addr)
	defer c.close()

	phase := func(seed uint64, rate float64, d time.Duration, traced bool) (*httpPhase, error) {
		sched := poissonSchedule(seed, rate, d)
		return c.phase(s, bodies.mix(seed, len(sched), w.share), sched, d, w.slo, traced)
	}
	// Warm-up, not measured; its outputs are still checked.
	wu, err := phase(derive(e.seed, 1000), w.rate, time.Second, false)
	if err != nil {
		return nil, err
	}
	o.incorrect += wu.incorrect
	count := func(p *httpPhase) {
		p.res.logErrors(e.log, w.name)
		o.count(len(p.res.lat), p.res.errorCount(), p.incorrect)
	}

	if e.trace {
		d := e.fixedPhase(true)
		plain, err := phase(derive(e.seed, 200), w.rate, d, false)
		if err != nil {
			return nil, err
		}
		p, err := phase(derive(e.seed, 201), w.rate, d, true)
		if err != nil {
			return nil, err
		}
		count(plain)
		count(p)
		if err := o.setTraceOverhead(plain.res.okLatencies(), p.res.okLatencies()); err != nil {
			return nil, err
		}
		if err := o.serveLayers(e, w, s, p); err != nil {
			return nil, err
		}
		o.set("load.build_s", e.buildS+buildS)
		return o, nil
	}

	o.set("setup_s", median(setups))
	var win windowed
	for k := 0; k < fixedWindows; k++ {
		if err := win.window(strconv.Itoa(s.pid()), func() error {
			p, err := phase(derive(e.seed, k), w.rate, e.fixedPhase(true)/fixedWindows, false)
			if err != nil {
				return err
			}
			count(p)
			win.addOpen(p.res, p.cpu)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := o.setFixed(&win); err != nil {
		return nil, err
	}
	o.setLag(win.lag, w.slo)

	knee := searchKnee(e, w, &win, func(seed uint64, rate float64, d time.Duration) []float64 {
		pr, err := phase(seed, rate, d, false)
		if err != nil {
			fmt.Fprintf(e.log, "tridload: knee probe: %v\n", err)
			return []float64{math.Inf(1)}
		}
		o.incorrect += pr.incorrect
		return pr.res.sloLatencies()
	})
	o.set("max_rps_at_slo", knee)
	return o, nil
}

// serveLayers records serve-http's per-layer metrics from a traced
// phase: the client's httptrace timestamps, the response fields, the
// /fleet counters, the server's CPU and its gctrace lines.
func (o *outcome) serveLayers(e *env, w *workloadSpec, s *server, p *httpPhase) error {
	tr := newTracer(4 * len(p.recs))
	tr.epoch = p.from
	var (
		lat, body, front, latDev, latCoal, waitCoal, waitDev, wall []float64
		reqBytes, respBytes                                        float64
		sent, newConns                                             int
		routes                                                     = map[string]int{}
	)
	for i := range p.recs {
		r := &p.recs[i]
		if r.start.IsZero() {
			continue // never sent
		}
		sent++
		reqBytes += float64(len(p.picks[i].json))
		if r.newConn {
			newConns++
		}
		if r.status != http.StatusOK || r.end.IsZero() {
			continue
		}
		root := tr.record("http.request", -1, int64(i), r.start, r.end)
		tr.record("http.write", root, int64(i), r.start, r.wrote)
		tr.record("tridserve.handler", root, int64(i), r.wrote, r.firstByte)
		tr.record("http.body", root, int64(i), r.firstByte, r.end)
		l := float64(r.end.Sub(r.start)) / 1e6
		lat = append(lat, l)
		body = append(body, float64(r.end.Sub(r.firstByte))/1e6)
		respBytes += float64(r.respLen)
		routes[r.route]++
		switch r.route {
		case "device":
			f := float64(r.firstByte.Sub(r.wrote)-time.Duration(r.waitNS+r.wallNS)) / 1e6
			front = append(front, f)
			latDev = append(latDev, l)
			waitDev = append(waitDev, float64(r.waitNS)/1e6)
			wall = append(wall, float64(r.wallNS)/1e6)
		case "coalesced":
			latCoal = append(latCoal, l)
			waitCoal = append(waitCoal, float64(r.waitNS)/1e6)
		}
	}
	if err := o.finishTrace(e, w, tr); err != nil {
		return err
	}
	ok := float64(len(lat))
	o.set("tridserve.front_share", ratio(mean(front), mean(latDev)))
	if f50, err := percentile(front, 0.5); err == nil {
		o.set("tridserve.front_p50_ms", f50)
	}
	o.set("tridserve.body_share", ratio(mean(body), mean(lat)))
	o.set("tridserve.req_kb_mean", ratio(reqBytes, float64(sent))/1024)
	o.set("tridserve.resp_kb_mean", ratio(respBytes, ok)/1024)
	o.set("tridserve.route_share_coalesced", ratio(float64(routes["coalesced"]), ok))
	o.set("tridserve.route_share_device", ratio(float64(routes["device"]), ok))
	o.set("tridserve.new_conns_per_req", ratio(float64(newConns), float64(sent)))

	o.set("batcher.wait_share", ratio(mean(waitCoal), mean(latCoal)))
	if w50, err := percentile(waitCoal, 0.5); err == nil {
		o.set("batcher.wait_p50_ms", w50)
	}
	f0, b0 := p.fleet[0].stats()
	f1, b1 := p.fleet[1].stats()
	o.setBatcher(b0, b1)
	o.setFleet(f0, f1)

	o.set("pool.wait_share", ratio(mean(waitDev), mean(latDev)))
	if w50, err := percentile(waitDev, 0.5); err == nil {
		o.set("pool.wait_p50_ms", w50)
	}
	o.set("pool.rejected", float64(p.rejected))
	o.set("pool.fallback_share", ratio(float64(routes["fallback"]), ok))

	if err := o.setSolve(wall, latDev, 1); err != nil {
		return err
	}
	o.zeroLayers("core.dist.", "adi.")
	if err := o.setKernelModel(64, 64, core.KAuto); err != nil {
		return err
	}

	cycles, gcCPU, allocMB := s.gc.window(p.from, p.to)
	n := float64(max(sent, 1))
	o.set("runtime.gc_cpu_share", ratio(float64(gcCPU), float64(p.cpu)))
	o.set("runtime.gc_cycles_per_op", float64(cycles)/n)
	o.set("runtime.alloc_mb_per_op", allocMB/n)

	o.setLag(p.res.lagMS(), w.slo)
	o.set("load.samples", ok)
	return nil
}
