package sim

import "math"

// RNG is a small, fast, deterministic random-number generator (splitmix64).
// Every stochastic element of the model (fabric jitter, compute-time noise,
// reorder injection) draws from its own RNG stream derived from the scenario
// seed, so adding randomness to one subsystem never perturbs another.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Derive returns a new independent stream labelled by tag. Equal (seed, tag)
// pairs always yield the same stream.
func (r *RNG) Derive(tag uint64) *RNG {
	// Mix the tag through one splitmix round so nearby tags diverge.
	d := NewRNG(r.state ^ (tag*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019))
	d.Uint64()
	return d
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Jitter returns a duration drawn from a normal distribution with the given
// mean and standard deviation, clamped at zero. It is used for wire and
// timing noise.
func (r *RNG) Jitter(mean, sd Time) Time {
	if sd == 0 {
		return mean
	}
	u, s := r.polar()
	// The variate has u's sign, so with mean <= 0 and sd > 0 a draw with
	// u <= 0 clamps to 0 whatever its magnitude: the fabric's zero-mean
	// wire jitter skips the log and square root for half its draws, and
	// the stream consumes the same uniforms either way.
	if mean <= 0 && sd > 0 && u <= 0 {
		return 0
	}
	v := float64(mean) + polarScale(u, s)*float64(sd)
	if v < 0 {
		return 0
	}
	return Time(v)
}

// Exp returns an exponentially distributed duration with the given mean.
func (r *RNG) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return Time(-float64(mean) * math.Log(u))
}

// polar is the rejection loop of the Marsaglia polar method (Box–Muller,
// one branch): a point (u, v) drawn uniformly in the unit disc, returned
// as u and s = u² + v². polarScale(u, s) is a standard normal variate
// with the sign of u.
func (r *RNG) polar() (u, s float64) {
	for {
		u = 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			return u, s
		}
	}
}

// polarScale maps a polar draw to its normal variate.
func polarScale(u, s float64) float64 {
	return u * math.Sqrt(-2*math.Log(s)/s)
}
