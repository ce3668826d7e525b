package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonSchedule returns the due times, as offsets from the start of a
// phase, of a Poisson arrival process at rate per second over d. The
// same seed gives the same schedule; it is generated before the phase
// starts, so sending never waits on the generator's arithmetic.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	r := rand.New(rand.NewPCG(seed, 0x7472_696c_6f61_6400))
	out := make([]time.Duration, 0, int(rate*d.Seconds()*1.1)+16)
	limit := d.Seconds()
	for t := r.ExpFloat64() / rate; t < limit; t += r.ExpFloat64() / rate {
		out = append(out, time.Duration(t*1e9))
	}
	return out
}

// openResult is what one open-loop phase observed.
type openResult struct {
	// lat holds, per request, the time from its due time to its
	// completion; a request never sent before the cutoff reads +Inf.
	lat []time.Duration
	// failed marks requests that completed with an error.
	failed []bool
	// lag holds how late the generator woke for requests it sent on
	// time; requests that queued behind a busy sender are not lag.
	lag []time.Duration
	// elapsed is the phase's wall time, first due time to last
	// completion.
	elapsed time.Duration
	// errs counts the failed requests' errors by message, for the log.
	errMu sync.Mutex
	errs  map[string]int
}

// noteErr records a failed request's error.
func (r *openResult) noteErr(err error) {
	r.errMu.Lock()
	if r.errs == nil {
		r.errs = make(map[string]int)
	}
	r.errs[err.Error()]++
	r.errMu.Unlock()
}

// logErrors writes the phase's failures, by message, to w.
func (r *openResult) logErrors(w io.Writer, workload string) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	for msg, n := range r.errs {
		fmt.Fprintf(w, "tridload: %s: %d requests failed: %s\n", workload, n, msg)
	}
}

const notSent = time.Duration(math.MaxInt64)

// errorCount counts failed requests.
func (r *openResult) errorCount() int {
	n := 0
	for _, f := range r.failed {
		if f {
			n++
		}
	}
	return n
}

// okLatencies returns the latencies of requests that completed without
// error, in milliseconds.
func (r *openResult) okLatencies() []float64 {
	out := make([]float64, 0, len(r.lat))
	for i, l := range r.lat {
		if !r.failed[i] && l != notSent {
			out = append(out, float64(l)/1e6)
		}
	}
	return out
}

// sloLatencies returns every request's latency in milliseconds, with
// failed and unsent requests at +Inf: a refused request misses any
// latency limit.
func (r *openResult) sloLatencies() []float64 {
	out := make([]float64, len(r.lat))
	for i, l := range r.lat {
		if r.failed[i] || l == notSent {
			out[i] = math.Inf(1)
		} else {
			out[i] = float64(l) / 1e6
		}
	}
	return out
}

// lagMS returns the measured generator lag in milliseconds.
func (r *openResult) lagMS() []float64 {
	out := make([]float64, 0, len(r.lag))
	for _, l := range r.lag {
		if l >= 0 {
			out = append(out, float64(l)/1e6)
		}
	}
	return out
}

func newOpenResult(n int) *openResult {
	r := &openResult{
		lat:    make([]time.Duration, n),
		failed: make([]bool, n),
		lag:    make([]time.Duration, n),
	}
	for i := range r.lat {
		r.lat[i] = notSent
		r.lag[i] = -1
	}
	return r
}

// sleepUntil blocks until t. Go's timers may fire up to a millisecond
// late (the runtime's poller sleeps in whole milliseconds), which at
// thousands of arrivals a second would bunch the schedule into bursts,
// so the last two milliseconds are slept in the kernel.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// runWorkers drives sched through a fixed set of senders, as a client
// holding that many connections would: each sender takes the next
// request, sleeps until it is due, and sends it — at once if it is
// already overdue because every sender was busy. Latency counts from
// the due time, so a stall is charged to every request queued behind
// it. Requests still unsent grace after the phase ends are abandoned
// and read as notSent.
func runWorkers(sched []time.Duration, phase, grace time.Duration, workers int, do func(i int) error) *openResult {
	res := newOpenResult(len(sched))
	t0 := time.Now()
	cutoff := t0.Add(phase + grace)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := t0.Add(sched[i])
				now := time.Now()
				if now.After(cutoff) {
					return
				}
				if now.Before(due) {
					sleepUntil(due)
					res.lag[i] = time.Since(due)
				}
				err := do(i)
				res.lat[i] = time.Since(due)
				if err != nil {
					res.failed[i] = true
					res.noteErr(err)
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	return res
}

// runSpawn drives sched with one goroutine per arrival, the way
// independent callers arrive at an in-process service: a dispatcher
// sleeps until each due time and starts the request, never waiting for
// earlier ones. after, called once the request's latency is recorded,
// checks its output off the latency clock. runSpawn returns once every
// request has completed.
func runSpawn(sched []time.Duration, do func(i int) error, after func(i int, err error)) *openResult {
	res := newOpenResult(len(sched))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range sched {
		due := t0.Add(sched[i])
		sleepUntil(due)
		res.lag[i] = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			err := do(i)
			res.lat[i] = time.Since(due)
			if err != nil {
				res.failed[i] = true
				res.noteErr(err)
			}
			after(i, err)
		}(i, due)
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	return res
}

// kneeStep and kneeGrid span the rates the knee search considers:
// fixed·kneeStep^1 … fixed·kneeStep^kneeGrid (4.8×). The step is 5%
// because a system that sheds past its capacity fails a probe outright,
// which pins the knee to a grid point.
const (
	kneeStep = 1.05
	kneeGrid = 32
)

// kneeRate is grid point i: the fixed rate raised i times by kneeStep.
func kneeRate(fixed float64, i int) float64 { return fixed * math.Pow(kneeStep, float64(i)) }

// maxMiss is the share of requests a rate may let miss the SLO, failed
// requests included: its p90 must meet the SLO. The SLO is on p90, not
// p99, because a probe short enough for the run holds too few requests
// for a p99, and the p99 of a whole fixed phase does not repeat from
// run to run on a shared two-vCPU host.
const maxMiss = 0.10

// minProbeRequests is the fewest requests a knee probe sends: enough
// that its miss share near maxMiss rests on about fifty misses.
const minProbeRequests = 500

// kneeProbes resolves the knee grid completely: bisecting its
// kneeGrid+2 points takes at most this many probes.
const kneeProbes = 6

// kneeSearch bisects the rate grid for the highest rate at which at
// most maxMiss of the requests miss the SLO, in at most kneeProbes
// probes; probe returns a rate's missShare. The fixed rate (grid point
// 0, whose miss share the fixed phase measured) counts as passing and
// the point past the grid as failing. Between the last passing point
// and the first failing one the knee is interpolated linearly in the
// miss share, so it moves smoothly instead of a whole grid step; for
// that the miss share is the only pass criterion.
func kneeSearch(fixed, fixedMiss float64, probe func(rate float64) (miss float64)) float64 {
	lo, hi := 0, kneeGrid+1
	mLo, mHi := fixedMiss, 1.0
	for probes := 0; hi-lo > 1 && probes < kneeProbes; probes++ {
		mid := (lo + hi) / 2
		if m := probe(kneeRate(fixed, mid)); m <= maxMiss {
			lo, mLo = mid, m
		} else {
			hi, mHi = mid, m
		}
	}
	f := 0.0
	if hi-lo == 1 && mHi > mLo {
		f = min(max((maxMiss-mLo)/(mHi-mLo), 0), 1)
	}
	return kneeRate(fixed, lo) * math.Pow(kneeStep, f)
}

// missShare is the share of a phase's requests that missed the latency
// limit (ms): slower than it, failed, or never sent (see
// openResult.sloLatencies). Like windowedPercentile it is the median
// over windows, here of at least minProbeRequests requests each.
func missShare(slo []float64, limit float64) float64 {
	k := min(maxWindows, max(1, len(slo)/minProbeRequests))
	per := make([]float64, k)
	for i := range per {
		w := slo[i*len(slo)/k : (i+1)*len(slo)/k]
		missed := 0
		for _, l := range w {
			if !(l <= limit) {
				missed++
			}
		}
		per[i] = ratio(float64(missed), float64(len(w)))
	}
	return median(per)
}
