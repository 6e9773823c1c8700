package sgprs_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sgprs"
	"sgprs/internal/gpu"
)

// TestFacadeQuickstart exercises the public API end to end, exactly as the
// package documentation advertises.
func TestFacadeQuickstart(t *testing.T) {
	res, err := sgprs.Run(sgprs.RunConfig{
		Kind:       sgprs.KindSGPRS,
		ContextSMs: []int{34, 34},
		NumTasks:   4,
		HorizonSec: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.TotalFPS < 110 || res.Summary.TotalFPS > 130 {
		t.Errorf("fps = %v, want ~120", res.Summary.TotalFPS)
	}
	if res.Summary.Missed != 0 {
		t.Errorf("missed = %d at light load", res.Summary.Missed)
	}
}

// TestFacadeSession: repeated runs through one Session must match one-shot
// Run calls exactly — the documented reuse contract.
func TestFacadeSession(t *testing.T) {
	cfg := sgprs.RunConfig{
		Kind:       sgprs.KindSGPRS,
		ContextSMs: []int{34, 34},
		NumTasks:   4,
		HorizonSec: 2,
	}
	want, err := sgprs.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := sgprs.NewSession()
	for i := 0; i < 3; i++ {
		got, err := sess.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session run %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestFacadeSweepAndPivot(t *testing.T) {
	series, err := sgprs.SweepSeries(sgprs.RunConfig{
		Kind:       sgprs.KindSGPRS,
		Name:       "sgprs",
		ContextSMs: sgprs.ContextPool(2, 1.5, 68),
		NumTasks:   1,
		HorizonSec: 2,
	}, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := sgprs.PivotPoint(series); got != 4 {
		t.Errorf("pivot = %d, want 4", got)
	}
	if got := sgprs.SaturationFPS(series); got < 110 {
		t.Errorf("saturation = %v", got)
	}
}

// TestFacadeExperimentRegistry: the registry ships the paper's scenarios
// and the built-in studies, and RunExperiment streams results under a
// context.
func TestFacadeExperimentRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, e := range sgprs.Experiments() {
		names[e.Name] = true
	}
	for _, want := range []string{"scenario1", "scenario2", "ablation-grid", "jitter-ladder", "oversubscription"} {
		if !names[want] {
			t.Errorf("registry is missing built-in %q", want)
		}
	}

	spec, ok := sgprs.LookupExperiment("jitter-ladder")
	if !ok {
		t.Fatal("jitter-ladder not registered")
	}
	// Shrink the clone to smoke scale; the registry master is unaffected.
	spec.Axes = []sgprs.ExperimentAxis{sgprs.JitterAxis(0, 5), sgprs.TasksAxis(2)}
	for i := range spec.Variants {
		spec.Variants[i].HorizonSec = 2
	}
	var streamed int
	rs, err := sgprs.RunExperiment(context.Background(), spec, sgprs.SweepOptions{
		Progress: func(done, total int, r sgprs.SweepJobResult) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != 2 || len(rs.Results) != 2 {
		t.Errorf("streamed %d / results %d, want 2/2", streamed, len(rs.Results))
	}
	series := rs.Series()
	if len(series["sgprs@jit=0"]) != 1 || len(series["sgprs@jit=5"]) != 1 {
		t.Errorf("series = %v, want one point per jitter level", series)
	}
}

// TestFacadeLegacyWrappersBitIdentical: the RunScenario wrapper regenerates
// scenarios 1 and 2 at worker counts 1, 2, and 4 bit-identically to the
// scenario spec's compiled grid run in order on one session.
func TestFacadeLegacyWrappersBitIdentical(t *testing.T) {
	counts := []int{2, 4}
	const horizon = 2
	for _, scenario := range []int{1, 2} {
		spec, err := sgprs.ScenarioExperiment(scenario, counts, horizon, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][]sgprs.Point{}
		sess := sgprs.NewSession()
		for _, j := range c.Jobs {
			res, err := sess.Run(j.Config)
			if err != nil {
				t.Fatal(err)
			}
			want[j.Variant] = append(want[j.Variant], sgprs.Point{Tasks: j.Tasks, Summary: res.Summary, FastForward: res.FastForward})
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := sgprs.RunScenarioWith(scenario, counts, horizon, 1, sgprs.SweepOptions{Jobs: workers})
			if err != nil {
				t.Fatalf("scenario %d workers=%d: %v", scenario, workers, err)
			}
			if !reflect.DeepEqual(want, got.Series) || !reflect.DeepEqual(c.Order, got.Order) || !reflect.DeepEqual(counts, got.TaskCounts) {
				t.Errorf("scenario %d workers=%d: wrapper output differs from the sequential runs", scenario, workers)
			}
		}
	}
}

// TestFacadeSweepSeriesFastForward: SweepSeries points carry the runs'
// fast-forward statistics, equal to RunExperiment's. The base is
// fast-forward eligible (no contention jitter) and long enough to skip
// cycles.
func TestFacadeSweepSeriesFastForward(t *testing.T) {
	g := gpu.DefaultConfig()
	g.ContentionJitter = 0
	g.Seed = 2
	base := sgprs.RunConfig{
		Kind:       sgprs.KindSGPRS,
		Name:       "steady",
		ContextSMs: sgprs.ContextPool(3, 1.5, 68),
		HorizonSec: 60,
		GPU:        g,
	}
	series, err := sgprs.SweepSeries(base, []int{26})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].FastForward.CyclesSkipped == 0 {
		t.Fatalf("series = %+v, want one point that skipped cycles", series)
	}
	rs, err := sgprs.RunExperiment(context.Background(), &sgprs.Experiment{
		Name:     "steady",
		Variants: []sgprs.RunConfig{base},
		Axes:     []sgprs.ExperimentAxis{sgprs.TasksAxis(26)},
	}, sgprs.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := rs.Series()["steady"]; !reflect.DeepEqual(want, series) {
		t.Errorf("SweepSeries = %+v, RunExperiment = %+v", series, want)
	}
}

// TestFacadeExperimentDuplicates: an experiment whose variants share a name
// fails compilation — no result set, an error naming the duplicate —
// instead of silently merging their series.
func TestFacadeExperimentDuplicates(t *testing.T) {
	base := sgprs.RunConfig{
		Kind:       sgprs.KindSGPRS,
		Name:       "dup",
		ContextSMs: sgprs.ContextPool(2, 1.5, 68),
		NumTasks:   1,
		HorizonSec: 2,
	}
	rs, err := sgprs.RunExperiment(context.Background(), &sgprs.Experiment{
		Name:     "dups",
		Variants: []sgprs.RunConfig{base, base},
		Axes:     []sgprs.ExperimentAxis{sgprs.TasksAxis(2)},
	}, sgprs.SweepOptions{})
	if rs != nil || err == nil || !strings.Contains(err.Error(), `duplicate variant name "dup"`) {
		t.Fatalf("RunExperiment = %v, %v; want a duplicate-name compile error", rs, err)
	}
}

// TestFacadeSeedDerived: under SeedDerived every cell runs at
// DeriveSeed(base seed, label, n) — exactly a one-shot Run at that seed —
// and on a seed-sensitive workload the results differ from SeedFixed.
func TestFacadeSeedDerived(t *testing.T) {
	base := sgprs.RunConfig{
		Kind:          sgprs.KindSGPRS,
		Name:          "sgprs",
		ContextSMs:    sgprs.ContextPool(2, 1.5, 68),
		NumTasks:      1,
		HorizonSec:    2,
		Seed:          7,
		WorkVariation: 0.3, // seed-sensitive workload
	}
	spec := &sgprs.Experiment{
		Name:       "derived",
		Variants:   []sgprs.RunConfig{base},
		Axes:       []sgprs.ExperimentAxis{sgprs.TasksAxis(2, 4)},
		SeedPolicy: sgprs.SeedDerived,
	}
	derived, err := sgprs.RunExperiment(context.Background(), spec, sgprs.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range derived.Results {
		cfg := base
		cfg.NumTasks = r.Job.Tasks
		cfg.Seed = sgprs.DeriveSeed(base.Seed, "sgprs", r.Job.Tasks)
		want, err := sgprs.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, r.Result) {
			t.Errorf("n=%d: derived-seed cell differs from a run at DeriveSeed", r.Job.Tasks)
		}
	}
	spec.SeedPolicy = sgprs.SeedFixed
	fixed, err := sgprs.RunExperiment(context.Background(), spec, sgprs.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(fixed.Series(), derived.Series()) {
		t.Error("SeedDerived had no effect on a seed-sensitive workload")
	}
}
