package main

import (
	"context"
	"fmt"
	"strings"

	"sgprs/internal/cluster"
	"sgprs/internal/exp"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/rt"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// A workload is one named input set. Its runs are the simulations of one
// pass; a pass either goes through the experiment runner (paper-grid) or
// builds one fresh sim.Session per run, so every pass pays the per-run
// allocations a command-line user pays.
type workloadDef struct {
	name string
	// runs returns the pass's run configurations, in pass order, before
	// Normalize.
	runs func(seed uint64) ([]sim.RunConfig, error)
	// viaRunner runs the pass through exp/runner at Jobs: 1 instead of one
	// fresh Session per run.
	viaRunner bool
	// fastForward marks a fast-forward-eligible workload. Its runs must
	// skip cycles, and its traced run wraps nothing: any observer or
	// scheduler decorator turns fast-forward off, so it is traced through
	// Session.Run and the CPU profile only.
	fastForward bool
	// pinned is the result digest at the default seed.
	pinned string
}

const defaultSeed = 1

var workloads = []workloadDef{
	{name: "paper-grid", runs: paperGridRuns, viaRunner: true,
		pinned: "004a59e4a2fbc21d"},
	{name: "overload-poisson", runs: single(overloadPoisson),
		pinned: "7c98d54932f2a614"},
	{name: "steady-ff", runs: single(steadyFF), fastForward: true,
		pinned: "b9f2066f17fb05b5"},
	{name: "fleet-failover", runs: single(fleetFailover),
		pinned: "daffe19d7dfce643"},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func single(mk func(seed uint64) sim.RunConfig) func(uint64) ([]sim.RunConfig, error) {
	return func(seed uint64) ([]sim.RunConfig, error) { return []sim.RunConfig{mk(seed)}, nil }
}

// paperSpecs are the paper's two scenarios: naive and SGPRS at 1.0/1.5/2.0x
// over-subscription, tasks 1..30, 10 s horizon, default contention jitter.
func paperSpecs(seed uint64) ([]*exp.Spec, error) {
	var specs []*exp.Spec
	for _, sc := range []int{1, 2} {
		s, err := exp.Scenario(sc, taskRange(1, 30), 10, seed)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

func paperGridRuns(seed uint64) ([]sim.RunConfig, error) {
	specs, err := paperSpecs(seed)
	if err != nil {
		return nil, err
	}
	var cfgs []sim.RunConfig
	for _, s := range specs {
		c, err := s.Compile()
		if err != nil {
			return nil, err
		}
		for _, j := range c.Jobs {
			cfgs = append(cfgs, j.Config)
		}
	}
	return cfgs, nil
}

func taskRange(lo, hi int) []int {
	var out []int
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

// overloadPoisson is the over-subscribed open loop: SGPRS 1.5x on the
// Scenario-2 pool, 26 tasks, Poisson arrivals at 1.5x the natural 30 fps, a
// one-frame SLO, 300 s.
func overloadPoisson(seed uint64) sim.RunConfig {
	return sim.RunConfig{
		Kind:       sim.KindSGPRS,
		Name:       "overload-poisson",
		ContextSMs: sim.ContextPool(3, 1.5, speedup.DeviceSMs),
		NumTasks:   26,
		Arrival:    workload.Poisson{Rate: 45},
		SLOMS:      1000.0 / 30.0,
		HorizonSec: 300,
		Seed:       seed,
	}
}

// steadyFF is the fast-forward-eligible closed loop: the same pool and load
// with contention jitter off, over an hour.
func steadyFF(seed uint64) sim.RunConfig {
	g := gpu.DefaultConfig()
	g.ContentionJitter = 0
	g.Seed = seed + 1
	return sim.RunConfig{
		Kind:       sim.KindSGPRS,
		Name:       "steady-ff",
		ContextSMs: sim.ContextPool(3, 1.5, speedup.DeviceSMs),
		NumTasks:   26,
		HorizonSec: 3600,
		Seed:       seed,
		GPU:        g,
	}
}

// fleetFailover is a 3-device load-steal fleet that loses device 1 for two
// seconds, with transient kernel faults retried throughout. It runs 45 tasks,
// below the fleet's saturation: at 60 the load-steal dynamics are chaotic in
// the seed (DMR 0.17 to 0.57 and a 2x spread in simulated work over seeds
// 1..10), while at 45 every seed gives the same headline statistics.
func fleetFailover(seed uint64) sim.RunConfig {
	return sim.RunConfig{
		Kind:         sim.KindSGPRS,
		Name:         "fleet-failover",
		ContextSMs:   sim.ContextPool(3, 1.0, speedup.DeviceSMs),
		NumTasks:     45,
		Devices:      3,
		Placement:    cluster.PlaceLoadSteal,
		Failover:     rt.FailoverMigrate,
		AdmitCeiling: 0.7,
		Faults: &fault.Config{
			Transient:    &fault.Transient{Prob: 0.005, Policy: "retry"},
			DeviceFaults: []fault.DeviceFault{{Device: 1, StartSec: 3, RestartSec: 5}},
		},
		HorizonSec: 120,
		Seed:       seed,
	}
}

// runPass executes one untraced pass over a warmed offline cache and returns
// one result (or error) per run, in pass order. Every segment of the pass,
// one runner call or one session run, executes inside timed.
func runPass(w workloadDef, cfgs []sim.RunConfig, seed uint64, cache *memo.Cache, timed func(func())) ([]sim.Result, []error) {
	results := make([]sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	if w.viaRunner {
		specs, err := paperSpecs(seed)
		if err != nil {
			for i := range errs {
				errs[i] = err
			}
			return results, errs
		}
		i := 0
		for _, s := range specs {
			var rs *exp.ResultSet
			timed(func() { rs, _ = exp.Run(context.Background(), s, runner.Options{Jobs: 1, Cache: cache}) })
			if rs == nil {
				// Compile failed: paperGridRuns compiled the same
				// specs, so this cannot happen at a valid seed.
				panic("simbench: scenario spec failed to compile")
			}
			for _, r := range rs.Results {
				results[i], errs[i] = r.Result, r.Err
				i++
			}
		}
		return results, errs
	}
	for i, cfg := range cfgs {
		timed(func() { results[i], errs[i] = sim.NewSession(cache).Run(cfg) })
	}
	return results, errs
}

// headline renders the workload's simulated statistics. They are outputs to
// check, not metrics to improve: the model is calibrated to the paper's
// saturation FPS and pivot and validated against nothing else.
func headline(w workloadDef, cfgs []sim.RunConfig, results []sim.Result) string {
	var b strings.Builder
	if w.viaRunner {
		series := map[string][]metrics.Point{}
		var order []string
		for i, cfg := range cfgs {
			// Scenario 1 pools hold two contexts, Scenario 2 pools three.
			key := fmt.Sprintf("s%d/%s", len(cfg.ContextSMs)-1, cfg.Name)
			if _, ok := series[key]; !ok {
				order = append(order, key)
			}
			series[key] = append(series[key], metrics.Point{Tasks: cfg.NumTasks, Summary: results[i].Summary})
		}
		for _, k := range order {
			fmt.Fprintf(&b, " %s:pivot=%d,sat_fps=%.1f", k, metrics.PivotPoint(series[k]), metrics.SaturationFPS(series[k]))
		}
		return strings.TrimSpace(b.String())
	}
	for _, r := range results {
		s := r.Summary
		fmt.Fprintf(&b, "total_fps=%.2f dmr=%.4f p99_ms=%.3f drop_rate=%.4f slo_hit=%.4f", s.TotalFPS, s.DMR, s.RespP99MS, s.DropRate, s.SLOHitRate)
	}
	return b.String()
}
