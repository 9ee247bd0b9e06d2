package fmath

import "testing"

func TestAtLeast(t *testing.T) {
	cases := []struct {
		a, b, eps float64
		want      bool
	}{
		{10, 10, 0, true},
		{10 - 1e-9, 10, 1e-6, true},
		{10 - 1e-3, 10, 1e-6, false},
		{11, 10, 0, true},
	}
	for _, c := range cases {
		if got := AtLeast(c.a, c.b, c.eps); got != c.want {
			t.Errorf("AtLeast(%v, %v, %v) = %v, want %v", c.a, c.b, c.eps, got, c.want)
		}
	}
}
