package runner_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/exp"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
)

// Sweep grids reach the pool as job lists compiled by package exp; these
// tests drive that path end to end through runner.Run.

var gridCounts = []int{2, 4}

func gridBase(name string) sim.RunConfig {
	return sim.RunConfig{
		Kind:       sim.KindSGPRS,
		Name:       name,
		ContextSMs: sim.ContextPool(2, 1.5, 68),
		NumTasks:   1,
		HorizonSec: 2,
		Seed:       1,
	}
}

// TestDecorrelateSeeds: the default seed policy keeps the base seed on every
// job (the sequential contract); SeedDerived stamps DeriveSeed per job, and
// the pool runs exactly the seed it was handed.
func TestDecorrelateSeeds(t *testing.T) {
	base := gridBase("sgprs")
	spec := exp.Series(base, gridCounts)
	plain, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range plain.Jobs {
		if j.Config.Seed != base.Seed {
			t.Errorf("default expansion changed seed: %d", j.Config.Seed)
		}
	}
	spec.SeedPolicy = exp.SeedDerived
	dec, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range dec.Jobs {
		want := runner.DeriveSeed(base.Seed, "sgprs", gridCounts[i])
		if j.Config.Seed != want {
			t.Errorf("decorrelated seed[%d] = %d, want %d", i, j.Config.Seed, want)
		}
	}
	if dec.Jobs[0].Config.Seed == dec.Jobs[1].Config.Seed {
		t.Error("decorrelated seeds collide across task counts")
	}

	results := runner.Run(context.Background(), dec.Jobs, runner.Options{Jobs: 2})
	if err := runner.Err(results); err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		cfg := base
		cfg.NumTasks = gridCounts[i]
		cfg.Seed = runner.DeriveSeed(base.Seed, "sgprs", gridCounts[i])
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, r.Result) {
			t.Errorf("n=%d: pooled run differs from a run at the derived seed", gridCounts[i])
		}
	}
}

// TestSweepGrid: a flat multi-variant fan-out groups results back into
// per-variant series in submission order.
func TestSweepGrid(t *testing.T) {
	bases := []sim.RunConfig{gridBase("a"), gridBase("b")}
	rs, err := exp.Run(context.Background(), exp.Grid(bases, gridCounts), runner.Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Order, []string{"a", "b"}) {
		t.Errorf("order = %v", rs.Order)
	}
	series := rs.Series()
	for _, name := range rs.Order {
		if len(series[name]) != len(gridCounts) {
			t.Errorf("series %q has %d points, want %d", name, len(series[name]), len(gridCounts))
		}
	}
	if !reflect.DeepEqual(series["a"], series["b"]) {
		t.Error("identical bases produced different series")
	}
}

// TestSweepGridEmptyCounts: an empty task axis is rejected before any job is
// dispatched, and a grid whose every job was skipped still folds into a
// present, empty series per variant rather than a panic or a missing key.
func TestSweepGridEmptyCounts(t *testing.T) {
	bases := []sim.RunConfig{gridBase("a"), {Kind: sim.KindNaive, ContextSMs: sim.ContextPool(2, 1, 68), HorizonSec: 2, Seed: 1}}
	rs, err := exp.Run(context.Background(), exp.Grid(bases, nil), runner.Options{})
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("err = %v, want an empty-axis compile error", err)
	}
	if rs != nil {
		t.Errorf("empty task axis still returned a result set: %+v", rs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, err = exp.Run(ctx, exp.Grid(bases, gridCounts), runner.Options{})
	if rs == nil {
		t.Fatalf("pre-cancelled grid returned no result set: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(rs.Order, []string{"a", "naive"}) {
		t.Errorf("order = %v", rs.Order)
	}
	series := rs.Series()
	for _, name := range rs.Order {
		if got, ok := series[name]; !ok || len(got) != 0 {
			t.Errorf("series[%q] = %v, want present and empty", name, got)
		}
	}
}

// TestSweepGridDuplicateNames: two bases resolving to the same variant name
// are rejected instead of silently merging into one series key.
func TestSweepGridDuplicateNames(t *testing.T) {
	bases := []sim.RunConfig{gridBase("dup"), gridBase("dup")}
	rs, err := exp.Run(context.Background(), exp.Grid(bases, gridCounts), runner.Options{})
	if err == nil || !strings.Contains(err.Error(), "duplicate variant name") {
		t.Fatalf("err = %v, want duplicate variant name error", err)
	}
	if rs != nil {
		t.Errorf("duplicate grid still returned a result set: %+v", rs)
	}
	// Unnamed configs of the same kind collide on the kind name too.
	anon := []sim.RunConfig{{Kind: sim.KindSGPRS}, {Kind: sim.KindSGPRS}}
	if _, err := exp.Run(context.Background(), exp.Grid(anon, gridCounts), runner.Options{}); err == nil {
		t.Error("unnamed same-kind bases were not rejected")
	}
}
