package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"gputrid"
	"gputrid/internal/adi"
	"gputrid/internal/matrix"
	"gputrid/internal/workload"
)

// body is one distinct request: the batch, its encoded /solve body, and
// the CPU reference solution every response to it is checked against.
type body struct {
	class int
	batch *gputrid.Batch[float64]
	json  []byte
	ref   []float64
}

// Request classes of the traffic mix.
const (
	classSpline = iota // natural cubic spline fit, 1×255
	classOption        // Crank–Nicolson option ladder, 1×511
	classADI           // Peaceman–Rachford line batch, 64×64
	numClasses
)

var classNames = [numClasses]string{"spline", "option", "adi"}

// Request shapes: spline and option requests are one system of
// splineN and optionN rows; an ADI request is the adiN lines of an
// adiN×adiN grid.
const (
	splineN = 255
	optionN = 511
	adiN    = 64
)

// newBody encodes b and computes its reference with the host pivoting
// solver.
func newBody(class int, b *gputrid.Batch[float64]) (*body, error) {
	ref, err := gputrid.SolveCPUPivoting(b)
	if err != nil {
		return nil, fmt.Errorf("%s reference: %w", classNames[class], err)
	}
	js, err := json.Marshal(map[string]any{
		"m": b.M, "n": b.N,
		"lower": b.Lower, "diag": b.Diag, "upper": b.Upper, "rhs": b.RHS,
	})
	if err != nil {
		return nil, err
	}
	return &body{class: class, batch: b, json: js, ref: ref}, nil
}

// splineBatch is a natural-cubic-spline second-derivative system over
// seeded knot values (workload.Spline).
func splineBatch(n int, seed uint64) *gputrid.Batch[float64] {
	return workload.Batch[float64](workload.Spline, 1, n, seed)
}

// optionBatch is one Crank–Nicolson step of the Black–Scholes PDE on a
// log-price grid for a European call of volatility vol, built exactly
// as examples/options builds each row of its book: the first implicit
// step from the terminal payoff.
func optionBatch(n int, vol float64) *gputrid.Batch[float64] {
	const (
		spot, strike, rate = 100.0, 100.0, 0.03
		expiry, steps      = 1.0, 200
		logHalf            = 3.0
	)
	h := 2 * logHalf / float64(n+1)
	dt := expiry / steps
	mu := rate - vol*vol/2
	aL := vol*vol/(2*h*h) - mu/(2*h)
	bD := -vol*vol/(h*h) - rate
	cU := vol*vol/(2*h*h) + mu/(2*h)
	v := make([]float64, n)
	for j := range v {
		v[j] = max(spot*math.Exp(-logHalf+float64(j+1)*h)-strike, 0)
	}
	bcOld := spot*math.Exp(logHalf) - strike
	bcNew := spot*math.Exp(logHalf) - strike*math.Exp(-rate*dt)
	b := gputrid.NewBatch[float64](1, n)
	for j := 0; j < n; j++ {
		if j > 0 {
			b.Lower[j] = -dt / 2 * aL
		}
		b.Diag[j] = 1 - dt/2*bD
		if j < n-1 {
			b.Upper[j] = -dt / 2 * cU
		}
		rhs := (1 + dt/2*bD) * v[j]
		if j > 0 {
			rhs += dt / 2 * aL * v[j-1]
		}
		if j < n-1 {
			rhs += dt / 2 * cU * v[j+1]
		} else {
			rhs += dt / 2 * cU * (bcOld + bcNew)
		}
		b.RHS[j] = rhs
	}
	return b
}

// heatField returns a seeded initial field and source for an n×n
// Heat2D grid: a few low sine modes, so the field stays smooth and the
// source keeps it from decaying to zero.
func heatField(n int, seed uint64) (u, f []float64) {
	r := rand.New(rand.NewPCG(seed, 0x6865_6174))
	u = make([]float64, n*n)
	f = make([]float64, n*n)
	for mode := 1; mode <= 3; mode++ {
		au, af := r.Float64()*2-1, r.Float64()*20-10
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				s := math.Sin(math.Pi*float64(mode*(i+1))/float64(n+1)) *
					math.Sin(math.Pi*float64(mode*(j+1))/float64(n+1))
				u[j*n+i] += au * s
				f[j*n+i] += af * s
			}
		}
	}
	return u, f
}

// heatDT is the Heat2D time step used by the benchmark's steppers.
const heatDT = 1e-4

// adiBatches captures the line batches a Heat2D stepper on an n×n grid
// solves over steps steps: two batches of n systems of n rows each.
func adiBatches(n, steps int, seed uint64) ([]*gputrid.Batch[float64], error) {
	var out []*gputrid.Batch[float64]
	cpu := adi.CPUBackend[float64]()
	h := &adi.Heat2D[float64]{Grid: adi.NewGrid2D(n, n), Alpha: 1,
		Backend: func(b *matrix.Batch[float64]) ([]float64, error) {
			c := gputrid.NewBatch[float64](b.M, b.N)
			copy(c.Lower, b.Lower)
			copy(c.Diag, b.Diag)
			copy(c.Upper, b.Upper)
			copy(c.RHS, b.RHS)
			out = append(out, c)
			return cpu(b)
		}}
	u, f := heatField(n, seed)
	for s := 0; s < steps; s++ {
		if err := h.Step(u, f, heatDT); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// volOf draws option volatility i of a seeded book in [0.10, 0.60].
func volOf(seed uint64, i int) float64 {
	r := rand.New(rand.NewPCG(seed, uint64(i)))
	return 0.10 + 0.50*r.Float64()
}

// bodySet is the distinct bodies of each class.
type bodySet [numClasses][]*body

// buildBodies makes count distinct bodies for every class with a
// positive share; classes with a zero share stay empty.
func buildBodies(seed uint64, count int, share [numClasses]float64) (bodySet, error) {
	var set bodySet
	add := func(class int, b *gputrid.Batch[float64]) error {
		bd, err := newBody(class, b)
		if err == nil {
			set[class] = append(set[class], bd)
		}
		return err
	}
	for i := 0; i < count; i++ {
		if share[classSpline] > 0 {
			if err := add(classSpline, splineBatch(splineN, seed+uint64(i))); err != nil {
				return set, err
			}
		}
		if share[classOption] > 0 {
			if err := add(classOption, optionBatch(optionN, volOf(seed, i))); err != nil {
				return set, err
			}
		}
	}
	if share[classADI] > 0 {
		bs, err := adiBatches(adiN, (count+1)/2, seed)
		if err != nil {
			return set, err
		}
		for _, b := range bs {
			if err := add(classADI, b); err != nil {
				return set, err
			}
		}
	}
	return set, nil
}

// deckSize is the period over which a traffic mix is exact: every run
// of deckSize requests holds each class in exact proportion to its
// share, so windows of a phase differ in arrival times and bodies, not
// in how much of each class they carry.
const deckSize = 20

// mix picks, for each of n requests, a class from a deck holding each
// class deckSize·share times, shuffled afresh for every deckSize
// requests, and then a body uniformly within the class, from seed.
func (s *bodySet) mix(seed uint64, n int, share [numClasses]float64) []*body {
	r := rand.New(rand.NewPCG(seed, 0x6d69_78))
	var deck []int
	for c, sh := range share {
		for k := 0; k < int(math.Round(sh*deckSize)); k++ {
			deck = append(deck, c)
		}
	}
	out := make([]*body, n)
	for i := range out {
		if i%len(deck) == 0 {
			r.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		c := deck[i%len(deck)]
		out[i] = s[c][r.IntN(len(s[c]))]
	}
	return out
}
