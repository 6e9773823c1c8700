package config

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/fault"
)

// TestParseInts pins the shared comma-list decoder behind -contexts, -tasks,
// and -sms: integers of at least 1, whitespace around elements allowed, and
// an error that quotes the bad element under the caller's noun.
func TestParseInts(t *testing.T) {
	good := []struct {
		in   string
		want []int
	}{
		{"34,34", []int{34, 34}},
		{"7", []int{7}},
		{" 1 , 2,\t68 ", []int{1, 2, 68}},
	}
	for _, c := range good {
		got, err := ParseInts(c.in, "SM allocation")
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseInts(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	bad := []struct{ in, elem string }{
		{"", `""`},
		{"0", `"0"`},
		{"34,0", `"0"`},
		{"-3,4", `"-3"`},
		{"4,,5", `""`},
		{"4,x", `"x"`},
		{"1.5", `"1.5"`},
		{"1..3", `"1..3"`},
	}
	for _, c := range bad {
		got, err := ParseInts(c.in, "task count")
		if err == nil {
			t.Errorf("ParseInts(%q) = %v, want an error", c.in, got)
			continue
		}
		if want := "invalid task count " + c.elem; err.Error() != want {
			t.Errorf("ParseInts(%q) error = %q, want %q", c.in, err, want)
		}
	}
}

// TestLoadFaults pins the -faults decoder: empty means none, inline JSON
// and a file decode to the same block, and malformed or invalid blocks are
// rejected.
func TestLoadFaults(t *testing.T) {
	if fc, err := LoadFaults(""); fc != nil || err != nil {
		t.Errorf(`LoadFaults("") = %+v, %v; want nil, nil`, fc, err)
	}

	const block = `{"transient":{"prob":0.05,"policy":"retry"},"device_faults":[{"device":1,"start_sec":3,"restart_sec":5}]}`
	want := &fault.Config{
		Transient:    &fault.Transient{Prob: 0.05, Policy: "retry"},
		DeviceFaults: []fault.DeviceFault{{Device: 1, StartSec: 3, RestartSec: 5}},
	}
	inline, err := LoadFaults("  " + block)
	if err != nil || !reflect.DeepEqual(inline, want) {
		t.Errorf("inline: %+v, %v; want %+v", inline, err, want)
	}
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, []byte(block), 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := LoadFaults(path)
	if err != nil || !reflect.DeepEqual(file, want) {
		t.Errorf("file: %+v, %v; want %+v", file, err, want)
	}

	for _, c := range []struct{ arg, msg string }{
		{"{bad", "faults config"},
		{filepath.Join(t.TempDir(), "missing.json"), "missing.json"},
		{`{"transient":{"prob":1.5}}`, "probability 1.5"},
		{`{"overrun":{"model":"sawtooth","factor":2}}`, `"sawtooth"`},
	} {
		fc, err := LoadFaults(c.arg)
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("LoadFaults(%q) = %+v, %v; want an error naming %s", c.arg, fc, err, c.msg)
		}
	}
}
