package main

import "testing"

// TestCheckSearchFlags pins which search flag combinations run: an
// unknown -op used to run an add search, -op mul -n 5 panicked in the
// annealer, and -commutative was ignored for add.
func TestCheckSearchFlags(t *testing.T) {
	for _, tc := range []struct {
		op      string
		n       int
		commSet bool
		ok      bool
	}{
		{"add", 2, false, true},
		{"add", 4, false, true},
		{"mul", 3, true, true},
		{"mul", 4, false, true},
		{"mull", 2, false, false},
		{"sub", 2, false, false},
		{"mul", 5, false, false},
		{"add", 1, false, false},
		{"add", 3, true, false},
	} {
		if err := checkSearchFlags(tc.op, tc.n, tc.commSet); (err == nil) != tc.ok {
			t.Errorf("checkSearchFlags(%q, %d, %v) = %v, want ok=%v", tc.op, tc.n, tc.commSet, err, tc.ok)
		}
	}
}
