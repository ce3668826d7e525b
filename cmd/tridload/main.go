package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what every workload run shares.
type env struct {
	root     string  // repository root (holds the gputrid go.mod)
	bindir   string  // where tridserve is built
	seed     uint64  // workload seed
	seconds  float64 // measured time of the run
	trace    bool    // traced run: per-layer metrics and span files
	tracedir string  // where span files go
	buildS   float64 // time the caller spent building tridload
	self     string  // the tridload executable, for child processes
	log      io.Writer
}

// fixedPhase is the open-loop fixed-rate phase: three fifths of the
// run, the rest going to the knee search. Closed-loop runs measure for
// the whole run. A traced run splits the run into an untraced and a
// traced half.
func (e *env) fixedPhase(open bool) time.Duration {
	d := time.Duration(e.seconds * float64(time.Second))
	switch {
	case e.trace:
		return d / 2
	case open:
		return d * 3 / 5
	}
	return d
}

// kneeBudget is the time the knee search plans to spend probing; a
// probe is lengthened beyond its share when its rate needs longer for
// minProbeRequests requests.
func (e *env) kneeBudget() time.Duration {
	return time.Duration(e.seconds*float64(time.Second)) * 2 / 5
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed, incorrect int
	// lagged is set when the generator ran later than a tenth of the SLO
	// at p90: the run is invalid as a measurement of the system.
	lagged  bool
	metrics map[string]float64
	spans   []layerTime
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) {
	if _, ok := metricByName(name); !ok {
		panic("tridload: metric " + name + " is not in the metric table")
	}
	o.metrics[name] = v
}

// count adds one measured phase's totals to the outcome's.
func (o *outcome) count(attempted, failed, incorrect int) {
	o.attempted += attempted
	o.failed += failed
	o.incorrect += incorrect
}

// setLatency records lat_p50_ms from latencies in ms, in the order they
// were taken, and lat_p90_ms and lat_p99_ms when there are samples
// enough for them.
func (o *outcome) setLatency(lat []float64) error {
	for _, p := range []struct {
		name string
		q    float64
	}{{"lat_p50_ms", 0.50}, {"lat_p90_ms", 0.90}, {"lat_p99_ms", 0.99}} {
		v, err := windowedPercentile(lat, p.q)
		switch {
		case err == nil:
			o.set(p.name, v)
		case p.q == 0.50:
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// setFixed records the end-to-end metrics of a fixed phase: the latency
// percentiles of its samples and the medians over windows of CPU per op
// and of peak RSS.
func (o *outcome) setFixed(win *windowed) error {
	if err := o.setLatency(win.lat); err != nil {
		return err
	}
	o.set("cpu_ms_per_op", median(append([]float64(nil), win.cpu...)))
	o.set("mem_peak_mb", median(append([]float64(nil), win.rss...)))
	return nil
}

// setTraceOverhead records how much slower the traced half ran than
// the untraced one, at the median.
func (o *outcome) setTraceOverhead(untraced, traced []float64) error {
	u, err := percentile(untraced, 0.5)
	if err != nil {
		return err
	}
	t, err := percentile(traced, 0.5)
	if err != nil {
		return err
	}
	o.set("load.trace_overhead_pct", (t/u-1)*100)
	return nil
}

// setLag records the generator lag; lag past a tenth of the SLO at p90,
// the percentile the SLO is on, marks the run invalid.
func (o *outcome) setLag(lagMS []float64, slo time.Duration) {
	if p90, err := percentile(lagMS, 0.90); err == nil {
		o.set("load.gen_lag_p90_ms", p90)
		if slo > 0 && p90 > float64(slo)/1e6/10 {
			o.lagged = true
		}
	}
	if p99, err := percentile(lagMS, 0.99); err == nil {
		o.set("load.gen_lag_p99_ms", p99)
	}
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Incorrect int                    `json:"incorrect"`
	Valid     bool                   `json:"valid"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what -out writes and -check reads.
type resultFile struct {
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// result renders an outcome; the metrics kept are those of the run's
// class (end to end untraced, per layer traced) plus every extra.
func (o *outcome) result(trace bool) *workloadResult {
	r := &workloadResult{
		Correct:   o.incorrect == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Incorrect: o.incorrect,
		Valid:     !o.lagged,
		Metrics:   make(map[string]metricValue),
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	for _, m := range metricTable {
		if v, ok := o.metrics[m.name]; ok && (m.class == want || m.class == extra) {
			r.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	if o.attempted > 0 {
		r.Metrics["error_rate"] = metricValue{
			Value: float64(o.failed+o.incorrect) / float64(o.attempted), Unit: "ratio"}
	}
	return r
}

// contractLine is the last line a single-workload run prints: exactly
// the metrics of its class, each of which must have been measured.
func contractLine(r *workloadResult, trace bool) (string, error) {
	want := endToEnd
	if trace {
		want = perLayer
	}
	metrics := make(map[string]metricValue)
	for _, m := range metricTable {
		if m.class != want {
			continue
		}
		v, ok := r.Metrics[m.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = v
	}
	if r.Attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed + r.Incorrect,
		"metrics":   metrics,
	})
	return string(b), err
}

// printMetrics writes "workload metric value unit" lines in table order.
func printMetrics(w io.Writer, name string, r *workloadResult) {
	for _, m := range metricTable {
		if v, ok := r.Metrics[m.name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", name, m.name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
		}
	}
	fmt.Fprintf(w, "%s attempted=%d failed=%d incorrect=%d valid=%t\n",
		name, r.Attempted, r.Failed, r.Incorrect, r.Valid)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tridload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run one workload and end with its result line (default: all four, each in a child process)")
		seed      = fs.Uint64("seed", defaultSeed, "workload seed: inputs and arrival schedules derive from it")
		seconds   = fs.Float64("seconds", defaultSeconds, "measured seconds per workload")
		trace     = fs.Int("trace", 0, "1: traced run — per-layer metrics and span files")
		tracedir  = fs.String("tracedir", "", "directory for span files (default: .bench_build/trace in the repository)")
		out       = fs.String("out", "", "write the full result JSON to this file")
		check     = fs.Bool("check", false, "compare two result files: -check base.json new.json")
		bindir    = fs.String("bindir", "", "directory to build tridserve into (default: a temporary one)")
		buildNS   = fs.Int64("build-ns", 0, "nanoseconds the caller spent building tridload")
		setupOnly = fs.Bool("setup-only", false, "bring the workload's system up once, print ready, and exit (setup_s child)")
		resultTo  = fs.String("result", "", "also write this run's full result JSON here (child of an all-workloads run)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "tridload: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	if *check {
		if fs.NArg() != 2 {
			return fail(errors.New("-check wants two result files"))
		}
		return runCheck(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *bindir == "" {
		dir, err := os.MkdirTemp("", "tridload")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dir)
		*bindir = dir
	}
	if *tracedir == "" {
		*tracedir = filepath.Join(root, ".bench_build", "trace")
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	e := &env{
		root: root, bindir: *bindir, seed: *seed, seconds: *seconds,
		trace: *trace == 1, tracedir: *tracedir, buildS: float64(*buildNS) / 1e9, self: self, log: stderr,
	}

	if *name == "" {
		return runAll(e, *out, stdout, stderr)
	}
	w := workloadByName(*name)
	if w == nil {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *setupOnly {
		if w.start == nil {
			return fail(fmt.Errorf("%s has no in-process set-up", w.name))
		}
		sys, err := w.start(e, w)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "ready")
		sys.close()
		return 0
	}

	o, err := w.run(e, w)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	return report(e, w, o, *resultTo, stdout, stderr)
}

// report prints a single-workload run: every metric as "workload metric
// value unit", the trace's per-span self times, and last the result
// line; it also saves the full result to resultTo when set. The exit
// code is 1 when any output was incorrect.
func report(e *env, w *workloadSpec, o *outcome, resultTo string, stdout, stderr io.Writer) int {
	r := o.result(e.trace)
	printMetrics(stdout, w.name, r)
	for _, lt := range o.spans {
		fmt.Fprintf(stdout, "%s span %s count=%d total_ms=%.3f self_ms=%.3f self_ms_per_span=%.4f\n",
			w.name, lt.Name, lt.Count, ms(lt.Total), ms(lt.Self), ms(lt.Self)/float64(max(lt.Count, 1)))
	}
	if resultTo != "" {
		if err := writeResult(resultTo, &resultFile{Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
			Workloads: map[string]*workloadResult{w.name: r}}); err != nil {
			fmt.Fprintf(stderr, "tridload: %v\n", err)
			return 1
		}
	}
	line, err := contractLine(r, e.trace)
	if err != nil {
		fmt.Fprintf(stderr, "tridload: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !r.Correct {
		fmt.Fprintf(stderr, "tridload: %s: %d incorrect results\n", w.name, r.Incorrect)
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runAll runs every workload in its own child process, so heap, GC and
// peak RSS never carry over from one workload to the next, then prints
// every metric and writes the result file.
func runAll(e *env, out string, stdout, stderr io.Writer) int {
	rf := &resultFile{Seed: e.seed, Seconds: e.seconds, Trace: e.trace, Workloads: make(map[string]*workloadResult)}
	code := 0
	for _, w := range workloads {
		part := filepath.Join(e.bindir, w.name+".result.json")
		cmd := command(e.self,
			"-workload", w.name, "-seed", strconv.FormatUint(e.seed, 10),
			"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64),
			"-trace", map[bool]string{false: "0", true: "1"}[e.trace], "-tracedir", e.tracedir,
			"-bindir", e.bindir, "-build-ns", strconv.FormatInt(int64(e.buildS*1e9), 10),
			"-result", part)
		cmd.Stdout, cmd.Stderr = stderr, stderr
		fmt.Fprintf(stderr, "tridload: running %s\n", w.name)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "tridload: %s: %v\n", w.name, err)
			code = 1
		}
		got, err := readResult(part)
		if err != nil {
			fmt.Fprintf(stderr, "tridload: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		for k, v := range got.Workloads {
			rf.Workloads[k] = v
			printMetrics(stdout, k, v)
			if !v.Correct {
				code = 1
			}
		}
	}
	if out != "" {
		if err := writeResult(out, rf); err != nil {
			fmt.Fprintf(stderr, "tridload: %v\n", err)
			return 1
		}
	}
	return code
}

func writeResult(path string, rf *resultFile) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// repoRoot walks up from the working directory to the directory whose
// go.mod declares module gputrid.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if f, err := os.Open(filepath.Join(dir, "go.mod")); err == nil {
			sc := bufio.NewScanner(f)
			first := sc.Scan() && strings.TrimSpace(sc.Text()) == "module gputrid"
			f.Close()
			if first {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the gputrid repository (no go.mod declaring module gputrid above the working directory)")
		}
		dir = parent
	}
}

// measureSetup brings a workload's in-process system up in n fresh
// child processes and returns the median time from starting the child
// to its "ready" line: process start, building the system, and its
// first (recording) solve.
func measureSetup(e *env, w *workloadSpec, n int) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		cmd := command(e.self, "-workload", w.name, "-setup-only",
			"-seed", strconv.FormatUint(e.seed, 10), "-bindir", e.bindir)
		cmd.Dir = e.root
		cmd.Stderr = e.log
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, _ := bufio.NewReader(pipe).ReadString('\n')
		elapsed := time.Since(t0)
		_, _ = io.Copy(io.Discard, pipe)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		if strings.TrimSpace(line) != "ready" {
			return 0, fmt.Errorf("set-up child printed %q", line)
		}
		times = append(times, elapsed.Seconds())
	}
	return median(times), nil
}

// command prepares a child process that the kernel kills if tridload
// dies first, so no child outlives an interrupted benchmark.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// median of a few values (sorts in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
