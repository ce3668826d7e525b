package num

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift64*). The workload generators use it instead of math/rand so
// that every experiment in the paper harness is reproducible from a
// seed, independent of Go release or platform.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped
// to a fixed non-zero constant because the xorshift state must never be
// zero.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a pseudo-random number in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a pseudo-random number in [lo, hi). The product is
// rounded explicitly and Range is never inlined, because an inlined
// copy loses the rounding and arm64 fuses it into a multiply-add: the
// generated workloads must be the same bits on every architecture.
//
//go:noinline
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// Intn returns a pseudo-random integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("num: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Real returns a pseudo-random value of type T in [lo, hi).
func Random[T Real](r *RNG, lo, hi T) T {
	return T(r.Range(float64(lo), float64(hi)))
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche of x, the
// deterministic hash behind fault draws and backoff jitter.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
