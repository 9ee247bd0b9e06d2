// Package fmath holds the tolerant floating-point comparisons for
// rate/time quantities. Callers pick the epsilon that matches their
// quantity's scale (e.g. netmod's epsRate for bytes/second).
//
// An exact ==/!= on floats stays as written where bitwise identity is the
// intent (change detection on caller-set fields, the delta≡batch check
// itself). Whether a comparison is tolerant or exact is checked by the
// bytes it produces: the netmod kernel reference, the policy goldens and
// the event-order digests (DESIGN.md §11).
package fmath

// AtLeast reports whether a reaches b within tolerance eps, i.e. a >= b-eps.
// It is the tolerant form of ">=" used for saturation and completion
// checks, where an allocation a few ulps under its cap must count as
// having reached it.
func AtLeast(a, b, eps float64) bool {
	return a >= b-eps
}
