package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minTail = 10

// errTooFewSamples reports a percentile the sample count cannot support.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the nearest-rank q-quantile of xs (which it sorts in
// place). It refuses when fewer than minTail samples lie beyond q, so a
// p99 from 300 samples is an error, not a number.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(xs)
	if float64(n)*(1-q) < minTail {
		return 0, fmt.Errorf("p%g of %d samples: %w", q*100, n, errTooFewSamples)
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	return xs[max(i, 0)], nil
}

// maxWindows caps how many windows windowedPercentile splits into.
const maxWindows = 8

// windowedPercentile splits xs, in the order the samples were taken,
// into as many contiguous windows as leave each at least minTail
// samples beyond q (at most maxWindows), and returns the median of the
// windows' q-quantiles. A burst that lands in one window moves that
// window's quantile, not the result; with too few samples for two
// windows it is percentile itself. It does not modify xs.
func windowedPercentile(xs []float64, q float64) (float64, error) {
	k := min(maxWindows, max(1, int(float64(len(xs))*(1-q)/minTail)))
	per := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		w := append([]float64(nil), xs[i*len(xs)/k:(i+1)*len(xs)/k]...)
		v, err := percentile(w, q)
		if err != nil {
			return 0, err
		}
		per = append(per, v)
	}
	return median(per), nil
}

// fixedWindows is how many consecutive windows a fixed phase is measured
// in. Rates, CPU per op and peak RSS are medians over the windows, so a
// stretch of contention from outside the benchmark that covers fewer than
// half of them does not move the result.
const fixedWindows = 5

// windowed accumulates a phase measured as consecutive windows.
type windowed struct {
	lat  []float64 // latencies of successful ops, ms, in the order taken
	slo  []float64 // every op's latency for the SLO, failures at +Inf
	lag  []float64 // generator lag, ms
	cpu  []float64 // CPU ms per op, one per window
	rate []float64 // ops per second, one per window
	rss  []float64 // peak RSS of the system under test, MB, one per window
	ops  int
}

// window runs one window of a fixed phase and records the peak RSS
// process pid reached during it. A process's peak over its whole life
// depends on where its first GC cycles fell; the median of per-window
// peaks is what its steady state holds.
func (w *windowed) window(pid string, run func() error) error {
	if err := resetPeakRSS(pid); err != nil {
		return err
	}
	if err := run(); err != nil {
		return err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	w.rss = append(w.rss, rss)
	return nil
}

func (w *windowed) add(ops int, cpu, elapsed time.Duration) {
	w.ops += ops
	w.cpu = append(w.cpu, ms(cpu)/float64(max(ops, 1)))
	w.rate = append(w.rate, float64(ops)/elapsed.Seconds())
}

// addOpen adds one open-loop window.
func (w *windowed) addOpen(r *openResult, cpu time.Duration) {
	w.lat = append(w.lat, r.okLatencies()...)
	w.slo = append(w.slo, r.sloLatencies()...)
	w.lag = append(w.lag, r.lagMS()...)
	w.add(len(r.lat), cpu, r.elapsed)
}

// addClosed adds one closed-loop window.
func (w *windowed) addClosed(p *closedPhase) {
	w.lat = append(w.lat, msOf(p.lat)...)
	w.lag = append(w.lag, msOf(p.lag)...)
	w.add(len(p.lat), p.rt[1].cpu-p.rt[0].cpu, p.elapsed)
}

// derive is the seed of stream k of a run with seed seed: each window,
// probe and warm-up draws its own schedule and traffic.
func derive(seed uint64, k int) uint64 { return seed*0x9E3779B97F4A7C15 + uint64(k) }

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean averages xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio divides, reading 0 when the denominator is 0 (a layer the
// workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// relErr is the norm-wise relative error ‖x − ref‖∞ / ‖ref‖∞.
func relErr(x, ref []float64) float64 {
	if len(x) != len(ref) {
		return math.Inf(1)
	}
	var diff, norm float64
	for i := range x {
		d := math.Abs(x[i] - ref[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		diff = max(diff, d)
		norm = max(norm, math.Abs(ref[i]))
	}
	if norm == 0 {
		return diff
	}
	return diff / norm
}

// maxOverMean is max(xs)/mean(xs): 1 for a balanced spread, 0 when
// nothing was observed.
func maxOverMean(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var hi float64
	for _, x := range xs {
		hi = max(hi, x)
	}
	return hi / m
}
