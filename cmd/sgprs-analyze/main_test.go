package main

import (
	"reflect"
	"testing"
)

// TestVerifyCounts: the verification sweep brackets the pivot with
// distinct, ascending counts of at least one task, whatever the pivot.
func TestVerifyCounts(t *testing.T) {
	cases := []struct {
		pivot int
		want  []int
	}{
		{24, []int{22, 24, 26}},
		{3, []int{1, 3, 5}},
		{2, []int{2, 4}},
		{1, []int{1, 3}},
		{0, []int{2}},
		{-1, []int{1}},
	}
	for _, c := range cases {
		got := verifyCounts(c.pivot)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("verifyCounts(%d) = %v, want %v", c.pivot, got, c.want)
		}
		for i, n := range got {
			if n < 1 || (i > 0 && n <= got[i-1]) {
				t.Errorf("verifyCounts(%d) = %v: counts must be distinct, ascending, and >= 1", c.pivot, got)
			}
		}
	}
}
