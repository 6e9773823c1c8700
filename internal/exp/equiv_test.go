package exp

import (
	"context"
	"reflect"
	"testing"

	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
)

// equivCounts/equivHorizon keep the equivalence sweeps fast while still
// crossing every variant (see runner's determinism tests for the scale
// rationale).
var equivCounts = []int{2, 4}

const equivHorizon = 2

// scenarioJobs is the paper scenario's grid written out by hand: every
// variant, variant-major, over the task counts, at seed 1.
func scenarioJobs(t *testing.T, scenario int, counts []int, horizonSec float64) []runner.Job {
	t.Helper()
	np, err := sim.ScenarioContexts(scenario)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []runner.Job
	for _, v := range sim.ScenarioVariants() {
		for _, n := range counts {
			jobs = append(jobs, runner.Job{Variant: v.Name, Tasks: n, Config: sim.RunConfig{
				Kind:       v.Kind,
				Name:       v.Name,
				ContextSMs: sim.ContextPool(np, v.OS, speedup.DeviceSMs),
				HorizonSec: horizonSec,
				Seed:       1,
				NumTasks:   n,
			}})
		}
	}
	return jobs
}

// TestScenarioSpecCompilesToLegacyJobs: the scenario spec expands to
// byte-for-byte the hand-written grid — the strongest form of the
// scenario-spec claim, without running a single simulation.
func TestScenarioSpecCompilesToLegacyJobs(t *testing.T) {
	for _, scenario := range []int{1, 2} {
		spec, err := Scenario(scenario, equivCounts, equivHorizon, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if want := scenarioJobs(t, scenario, equivCounts, equivHorizon); !reflect.DeepEqual(c.Jobs, want) {
			t.Errorf("scenario %d: compiled jobs differ from the hand-written grid\n spec: %+v\n want: %+v",
				scenario, c.Jobs, want)
		}
	}
}

// TestScenarioSpecBitIdentical: the spec-driven regeneration of scenarios 1
// and 2 at worker counts 1, 2, and 4 is bit-identical to running the grid
// in order on one session.
func TestScenarioSpecBitIdentical(t *testing.T) {
	for _, scenario := range []int{1, 2} {
		sess := sim.NewSession(memo.Default())
		var ref []sim.Result
		for _, j := range scenarioJobs(t, scenario, equivCounts, equivHorizon) {
			res, err := sess.Run(j.Config)
			if err != nil {
				t.Fatalf("scenario %d %s n=%d reference: %v", scenario, j.Variant, j.Tasks, err)
			}
			ref = append(ref, res)
		}
		spec, err := Scenario(scenario, equivCounts, equivHorizon, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			rs, err := Run(context.Background(), spec, runner.Options{Jobs: workers})
			if err != nil {
				t.Fatalf("scenario %d workers=%d: %v", scenario, workers, err)
			}
			for i, r := range rs.Results {
				if !reflect.DeepEqual(ref[i], r.Result) {
					t.Errorf("scenario %d workers=%d: %s n=%d differs from the sequential run",
						scenario, workers, r.Job.Variant, r.Job.Tasks)
				}
			}
		}
	}
}

// TestSeriesSpecBitIdentical: a Series spec's folded points equal fresh
// uncached runs of each task count.
func TestSeriesSpecBitIdentical(t *testing.T) {
	base := sim.RunConfig{
		Kind:       sim.KindSGPRS,
		Name:       "sgprs",
		ContextSMs: sim.ContextPool(2, 1.5, 68),
		NumTasks:   1,
		HorizonSec: equivHorizon,
		Seed:       1,
	}
	var ref []metrics.Point
	for _, n := range equivCounts {
		cfg := base
		cfg.NumTasks = n
		res, err := sim.RunWith(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, metrics.Point{Tasks: n, Summary: res.Summary, FastForward: res.FastForward})
	}
	for _, workers := range []int{1, 2, 4} {
		rs, err := Run(context.Background(), Series(base, equivCounts), runner.Options{Jobs: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Series()["sgprs"]; !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: series spec differs from fresh runs", workers)
		}
	}
}
