package main

import (
	"strings"
	"testing"
)

// TestCheck sums two sites' Grams, diag(1,0) and diag(0,2) (‖A‖²_F = 3),
// and holds coordinator answers to ε = 0.2, a bound of 0.6.
func TestCheck(t *testing.T) {
	sites := []siteOracle{
		{Rows: 10, Messages: 3, Gram: [][]float64{{1, 0}, {0, 0}}},
		{Rows: 10, Messages: 2, Gram: [][]float64{{0, 0}, {0, 2}}},
	}
	for _, tc := range []struct {
		name string
		gram [][]float64
		tm   tally
		want string // "" passes, else a substring of the error
	}{
		{"within the bound", [][]float64{{1, 0}, {0, 1.5}}, tally{UpMsgs: 5}, ""},
		{"outside the bound", [][]float64{{1, 0}, {0, 1}}, tally{UpMsgs: 5}, "exceeds"},
		{"messages lost", [][]float64{{1, 0}, {0, 2}}, tally{UpMsgs: 4}, "not exactly once"},
		{"wrong shape", [][]float64{{1, 0}}, tally{UpMsgs: 5}, "Gram has 1 rows"},
	} {
		_, err := check(0.2, tc.gram, tc.tm, sites)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// Every message applied once, but as many messages as rows.
	few := []siteOracle{{Rows: 2, Messages: 2, Gram: [][]float64{{1}}}}
	if _, err := check(0.2, [][]float64{{1}}, tally{UpMsgs: 2}, few); err == nil || !strings.Contains(err.Error(), "no saving") {
		t.Errorf("two messages for two rows: got %v, want no saving", err)
	}
}
