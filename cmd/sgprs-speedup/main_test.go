package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseSMs: the -sms flag is the shared list decoder bounded by the
// device's SM count, and every rejection names the bad element.
func TestParseSMs(t *testing.T) {
	got, err := parseSMs("1, 2,68")
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 68}) {
		t.Errorf("parseSMs(\"1, 2,68\") = %v, %v", got, err)
	}
	for in, elem := range map[string]string{"0": "0", "1,69": "69", "-4": "-4", "2,x": "x", "": `""`} {
		got, err := parseSMs(in)
		if err == nil || !strings.Contains(err.Error(), elem) || !strings.Contains(err.Error(), "68 SMs") {
			t.Errorf("parseSMs(%q) = %v, %v; want an error naming %s and the device size", in, got, err, elem)
		}
	}
}
