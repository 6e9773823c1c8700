package main

import (
	"time"

	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/sim"
)

// setupTimes times one cold offline phase: the calls a run makes before its
// first event, for every distinct task shape of the workload, on a fresh
// cache.
type setupTimes struct {
	total, graph, build, prof time.Duration
	stats                     memo.Stats
}

// shape is what a task set is built from; profiled adds what its WCET table
// is measured under.
type shape struct {
	tasks, stages        int
	fps, jitter, workVar float64
	stagger              bool
}

type profiled struct {
	shape
	sms int
	gpu gpu.Config
}

func shapeOf(cfg sim.RunConfig) shape {
	return shape{cfg.NumTasks, cfg.Stages, cfg.FPS, cfg.ReleaseJitterMS, cfg.WorkVariation, cfg.Stagger}
}

// coldSetup runs the offline phase for normalized configurations on a fresh
// memo.Cache and returns the phase's timings with the warmed cache.
func coldSetup(cfgs []sim.RunConfig) (setupTimes, *memo.Cache, error) {
	var r setupTimes
	cache := memo.New()
	start := time.Now()
	model := sim.DefaultModel()
	t := time.Now()
	graph := referenceGraph(cache)
	r.graph = time.Since(t)
	built := map[shape][]*rt.Task{}
	done := map[profiled]bool{}
	for _, cfg := range cfgs {
		sh := shapeOf(cfg)
		tasks, ok := built[sh]
		if !ok {
			t = time.Now()
			var err error
			if tasks, err = buildTasks(cfg, graph); err != nil {
				return r, nil, err
			}
			r.build += time.Since(t)
			built[sh] = tasks
		}
		key := profiled{sh, minSMs(cfg), cfg.GPU}
		if done[key] {
			continue
		}
		done[key] = true
		t = time.Now()
		if err := cache.ProfileTasks(profile.New(model, cfg.GPU), tasks, key.sms); err != nil {
			return r, nil, err
		}
		r.prof += time.Since(t)
	}
	r.total = time.Since(start)
	r.stats = cache.Stats()
	return r, cache, nil
}
