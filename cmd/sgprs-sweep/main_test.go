package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/config"
	"sgprs/internal/exp"
	"sgprs/internal/workload"
)

// TestParseArrivalPeriod pins the -arrival/-arrival-period flag pair: the
// period threads into the diurnal cycle and the bursty window pair, zero
// keeps the historical defaults, and misuse (negative periods, periods on
// memoryless processes) is rejected rather than silently ignored.
func TestParseArrivalPeriod(t *testing.T) {
	cases := []struct {
		name    string
		arrival string
		period  float64
		want    workload.Arrival
		wantErr bool
	}{
		{"diurnal-default", "diurnal:40", 0, workload.Diurnal{PeriodSec: 5, MaxRate: 40}, false},
		{"diurnal-period", "diurnal:40", 12, workload.Diurnal{PeriodSec: 12, MaxRate: 40}, false},
		{"bursty-default", "bursty:60", 0, workload.Bursty{OnSec: 1, OffSec: 1, Rate: 60}, false},
		{"bursty-period", "bursty:60", 4, workload.Bursty{OnSec: 2, OffSec: 2, Rate: 60}, false},
		{"poisson-unaffected", "poisson:45", 0, workload.Poisson{Rate: 45}, false},
		{"poisson-period", "poisson:45", 3, nil, true},
		{"periodic-period", "periodic", 3, nil, true},
		{"negative-period", "diurnal", -1, nil, true},
		{"bad-kind", "sawtooth", 0, nil, true},
		{"bad-rate", "diurnal:fast", 0, nil, true},
	}
	for _, tc := range cases {
		got, err := parseArrival(tc.arrival, tc.period)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: parseArrival(%q, %v) = %+v, want error", tc.name, tc.arrival, tc.period, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: parseArrival(%q, %v): %v", tc.name, tc.arrival, tc.period, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: parseArrival(%q, %v) = %+v, want %+v", tc.name, tc.arrival, tc.period, got, tc.want)
		}
	}
}

// TestParseArrivalMatchesConfigBlock: every -arrival flag form builds the
// same process as the JSON arrival block it stands for, so the flag and a
// -config file cannot drift apart.
func TestParseArrivalMatchesConfigBlock(t *testing.T) {
	cases := []struct {
		arrival string
		period  float64
		block   string
	}{
		{"periodic", 0, `{"kind":"periodic"}`},
		{"periodic:1.5", 0, `{"kind":"periodic","rate":1.5}`},
		{"poisson:45", 0, `{"kind":"poisson","rate":45}`},
		{"bursty:60", 0, `{"kind":"bursty","rate":60,"on_sec":1,"off_sec":1}`},
		{"bursty:60", 4, `{"kind":"bursty","rate":60,"on_sec":2,"off_sec":2}`},
		{"diurnal:40", 0, `{"kind":"diurnal","period_sec":5,"max_rate":40}`},
		{"diurnal", 12, `{"kind":"diurnal","period_sec":12}`},
	}
	for _, c := range cases {
		var a config.Arrival
		if err := json.Unmarshal([]byte(c.block), &a); err != nil {
			t.Fatal(err)
		}
		want, err := a.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.block, err)
		}
		got, err := parseArrival(c.arrival, c.period)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseArrival(%q, %v) = %+v, %v; want %+v from %s", c.arrival, c.period, got, err, want, c.block)
		}
	}
	for _, s := range []string{"poisson:-5", "mmpp", "trace"} {
		if got, err := parseArrival(s, 0); err == nil {
			t.Errorf("parseArrival(%q) = %+v, want an error", s, got)
		}
	}
}

// TestParseCounts: the -tasks flag's range form on top of the shared list
// decoder.
func TestParseCounts(t *testing.T) {
	for in, want := range map[string][]int{
		"1..4":     {1, 2, 3, 4},
		" 2 .. 3 ": {2, 3},
		"5..5":     {5},
		"4,12, 24": {4, 12, 24},
	} {
		got, err := parseCounts(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseCounts(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "0..3", "3..1", "a..4", "1..", "0,2", "2,-1", "1..3,5"} {
		if got, err := parseCounts(in); err == nil {
			t.Errorf("parseCounts(%q) = %v, want an error", in, got)
		}
	}
}

// TestFlagMisuseRejected: a traffic or fleet flag that was given but would
// have no effect fails with a message naming it, instead of running as if
// it were absent; the same flags used correctly reach every variant.
// Whether a flag was given comes from the set of visited flag names, not
// from sentinel values.
func TestFlagMisuseRejected(t *testing.T) {
	type flags struct {
		set                []string
		arrival, trace     string
		period, slo, admit float64
		devices            int
	}
	misuse := []struct {
		name string
		f    flags
		flag string
	}{
		{"period-closed-loop", flags{set: []string{"arrival-period"}, period: 8}, "-arrival-period"},
		{"period-zero-closed-loop", flags{set: []string{"arrival-period"}}, "-arrival-period"},
		{"period-with-trace", flags{set: []string{"arrival-period", "arrival", "trace"}, arrival: "bursty", trace: "arrivals.csv", period: 8}, "-arrival-period"},
		{"period-poisson", flags{set: []string{"arrival-period", "arrival"}, arrival: "poisson", period: 8}, "-arrival-period"},
		{"negative-slo", flags{set: []string{"slo"}, slo: -5}, "-slo"},
		{"negative-admit", flags{set: []string{"admit", "devices"}, admit: -0.5, devices: 2}, "-admit"},
		{"admit-above-one", flags{set: []string{"admit", "devices"}, admit: 1.5, devices: 2}, "-admit"},
	}
	apply := func(f flags) (*exp.Spec, error) {
		spec, err := exp.Scenario(1, []int{4}, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, name := range f.set {
			set[name] = true
		}
		if err := applyTraffic(spec, set, f.arrival, f.trace, "", f.slo, f.period); err != nil {
			return nil, err
		}
		return spec, applyFleet(spec, set, f.devices, "", "", f.admit)
	}
	for _, c := range misuse {
		_, err := apply(c.f)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: error = %v, want one naming %s", c.name, err, c.flag)
		}
	}

	spec, err := apply(flags{
		set:     []string{"arrival", "arrival-period", "slo", "admit", "devices"},
		arrival: "bursty:60", period: 4, slo: 40, admit: 0.5, devices: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range spec.Variants {
		if v.Arrival != (workload.Bursty{OnSec: 2, OffSec: 2, Rate: 60}) || v.SLOMS != 40 || v.AdmitCeiling != 0.5 || v.Devices != 2 {
			t.Errorf("%s: arrival %+v, SLO %v, admit %v, devices %d", v.Name, v.Arrival, v.SLOMS, v.AdmitCeiling, v.Devices)
		}
	}
	// An -admit left unset keeps the declared ceiling; -slo 0 clears the SLO.
	spec, err = exp.Scenario(1, []int{4}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Variants {
		spec.Variants[i].SLOMS, spec.Variants[i].AdmitCeiling = 33, 0.7
	}
	if err := applyTraffic(spec, map[string]bool{"slo": true}, "", "", "", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := applyFleet(spec, map[string]bool{"devices": true}, 2, "", "", 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range spec.Variants {
		if v.SLOMS != 0 || v.AdmitCeiling != 0.7 {
			t.Errorf("%s: SLO %v (want cleared), admit %v (want the declared 0.7)", v.Name, v.SLOMS, v.AdmitCeiling)
		}
	}
}
