// Package workload holds the key distributions that decide which
// subscriber each generated request targets: a flat draw, and a Zipf
// skew for busy-hour traffic against a small popular subscriber set.
// benchmark/'s request streams and E22's cache cells draw from them.
package workload

import (
	"fmt"
	"math/rand"
)

// KeyDist selects which subscriber a request targets. Pickers are
// built per driver goroutine around that goroutine's seeded RNG, so a
// run is reproducible at any concurrency.
type KeyDist interface {
	// Name labels the distribution in reports.
	Name() string
	// Picker returns a draw function over [0, n).
	Picker(r *rand.Rand, n int) func() int
}

// Uniform is the flat draw.
type Uniform struct{}

// Name implements KeyDist.
func (Uniform) Name() string { return "uniform" }

// Picker implements KeyDist.
func (Uniform) Picker(r *rand.Rand, n int) func() int {
	return func() int { return r.Intn(n) }
}

// Zipfian draws subscriber indexes with Zipf skew: low indexes are
// the hot set. S is the skew exponent (>1; busy-hour subscriber
// traffic is commonly modelled near s≈1.1) and V the value offset
// (≥1; 1 if zero).
type Zipfian struct {
	S float64
	V float64
}

// Name implements KeyDist.
func (z Zipfian) Name() string { return fmt.Sprintf("zipf-s%.2f", z.skew()) }

func (z Zipfian) skew() float64 {
	if z.S > 1 {
		return z.S
	}
	return 1.1
}

// Picker implements KeyDist.
func (z Zipfian) Picker(r *rand.Rand, n int) func() int {
	v := z.V
	if v < 1 {
		v = 1
	}
	zf := rand.NewZipf(r, z.skew(), v, uint64(n-1))
	return func() int { return int(zf.Uint64()) }
}
