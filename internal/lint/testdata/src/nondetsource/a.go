// Package nondetsource exercises the nondetsource analyzer: wall-clock
// reads, the process-global math/rand generator, and environment lookups
// are flagged; plumbed generators and their methods are not.
package nondetsource

import (
	"math/rand"
	"os"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want "wall-clock time.Now"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "wall-clock time.Since"
}

func globalRand() int {
	return rand.Int() // want "process-global rand.Int"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { // want "process-global rand.Shuffle"
		xs[i], xs[j] = xs[j], xs[i]
	})
}

// Constructing a plumbed generator is allowed, and methods on it are
// allowed.
func plumbed(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

func env() string {
	return os.Getenv("GURITA_MODE") // want "environment-dependent os.Getenv"
}

func justified(t0 time.Time) time.Duration {
	//lint:ignore nondetsource fixture: operator-facing elapsed display only
	return time.Since(t0)
}
