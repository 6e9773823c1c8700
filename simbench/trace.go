package main

import (
	"fmt"
	"time"

	"sgprs/internal/cluster"
	"sgprs/internal/core"
	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/naive"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// span accumulates one seam's timed calls. self excludes the time of timed
// calls nested inside it (a scheduler discarding a job calls the sink).
type span struct {
	calls int64
	self  time.Duration
}

func (s span) selfNSPerCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.self.Nanoseconds()) / float64(s.calls)
}

// tracer collects the traced run's counters and timings. Everything runs on
// the one simulation goroutine, so no synchronisation is needed.
type tracer struct {
	nested []time.Duration // per open span: time of timed calls inside it

	sched, fleet, sink span

	kernelStarts, kernelFinishes uint64

	events                    uint64
	runUntil, summary         time.Duration
	kernels                   uint64
	recFast, recLean, recFull uint64
	migrations, shedReleases  int
}

// timed runs f as one call of s.
func (t *tracer) timed(s *span, f func()) {
	t.nested = append(t.nested, 0)
	start := time.Now()
	f()
	d := time.Since(start)
	inner := t.nested[len(t.nested)-1]
	t.nested = t.nested[:len(t.nested)-1]
	s.calls++
	s.self += d - inner
	if n := len(t.nested); n > 0 {
		t.nested[n-1] += d
	}
}

// timedSched times a scheduler's OnRelease. It forwards EvictAll so a fleet
// accepts it as a member.
type timedSched struct {
	sched.Scheduler
	tr *tracer
	sp *span
}

func (s timedSched) OnRelease(j *rt.Job, now des.Time) {
	s.tr.timed(s.sp, func() { s.Scheduler.OnRelease(j, now) })
}

func (s timedSched) EvictAll(now des.Time) { s.Scheduler.(sched.Evictor).EvictAll(now) }

// timedSink times the metrics collector's job-lifecycle callbacks.
type timedSink struct {
	c  *metrics.Collector
	tr *tracer
}

func (s timedSink) JobReleased(j *rt.Job, now des.Time) {
	s.tr.timed(&s.tr.sink, func() { s.c.JobReleased(j, now) })
}

func (s timedSink) JobDone(j *rt.Job, now des.Time) {
	s.tr.timed(&s.tr.sink, func() { s.c.JobDone(j, now) })
}

func (s timedSink) JobDiscarded(j *rt.Job, now des.Time) {
	s.tr.timed(&s.tr.sink, func() { s.c.JobDiscarded(j, now) })
}

// kernelCounter is the gpu.Observer of the traced run.
type kernelCounter struct{ tr *tracer }

func (k kernelCounter) KernelStarted(*gpu.Kernel, des.Time)  { k.tr.kernelStarts++ }
func (k kernelCounter) KernelFinished(*gpu.Kernel, des.Time) { k.tr.kernelFinishes++ }

// graphKey is the cache key Session.Run uses for the reference graph, so set-up,
// untraced and traced runs share one entry.
func graphKey() memo.GraphKey {
	return memo.GraphKey{Model: sim.DefaultModel(), Name: "resnet18-ref", SMs: speedup.DeviceSMs, TargetMS: sim.ReferenceLatencyMS}
}

func minSMs(cfg sim.RunConfig) int {
	m := cfg.ContextSMs[0]
	for _, c := range cfg.ContextSMs[1:] {
		m = min(m, c)
	}
	return m
}

// referenceGraph is the calibrated graph every run uses, through the cache.
func referenceGraph(cache *memo.Cache) *dnn.Graph {
	return cache.Graph(graphKey(), func() *dnn.Graph { return sim.ReferenceGraph(sim.DefaultModel()) })
}

// buildTasks builds a run's task set the way Session.Run does.
func buildTasks(cfg sim.RunConfig, graph *dnn.Graph) ([]*rt.Task, error) {
	return workload.Build(workload.Replicate(workload.Options{
		Count: cfg.NumTasks,
		Spec: workload.TaskSpec{
			Name:          "resnet18",
			Graph:         graph,
			Stages:        cfg.Stages,
			FPS:           cfg.FPS,
			ReleaseJitter: des.FromMillis(cfg.ReleaseJitterMS),
			WorkVariation: cfg.WorkVariation,
		},
		Stagger: cfg.Stagger,
	}))
}

func newScheduler(cfg sim.RunConfig) (sched.Scheduler, error) {
	switch cfg.Kind {
	case sim.KindSGPRS:
		return core.New(core.DefaultConfig(cfg.Name, cfg.ContextSMs))
	case sim.KindNaive:
		return naive.New(naive.DefaultConfig(cfg.Name, cfg.ContextSMs))
	}
	return nil, fmt.Errorf("unsupported scheduler kind %v", cfg.Kind)
}

// tracedRun rebuilds Session.Run's online pipeline for one normalized
// configuration from the layers' public constructors, with timing
// decorators at the seams, and returns the Result Session.Run assembles.
// It covers the configurations the workloads use: default scheduler
// options, and no fast-forward (the traced workloads are ineligible).
func tracedRun(cfg sim.RunConfig, cache *memo.Cache, tr *tracer) (sim.Result, error) {
	model := sim.DefaultModel()
	eng := des.NewEngine()
	n := max(cfg.Devices, 1)
	devs := make([]*gpu.Device, n)
	for i := range devs {
		g := cfg.GPU
		g.Seed += uint64(i)
		d, err := gpu.NewDevice(eng, model, g)
		if err != nil {
			return sim.Result{}, err
		}
		d.SetObserver(kernelCounter{tr})
		devs[i] = d
	}
	tasks, err := buildTasks(cfg, referenceGraph(cache))
	if err != nil {
		return sim.Result{}, err
	}
	if err := cache.ProfileTasks(profile.New(model, cfg.GPU), tasks, minSMs(cfg)); err != nil {
		return sim.Result{}, err
	}
	scheds := make([]sched.Scheduler, n)
	for i, d := range devs {
		s, err := newScheduler(cfg)
		if err != nil {
			return sim.Result{}, err
		}
		if err := s.Attach(eng, d, tasks); err != nil {
			return sim.Result{}, err
		}
		scheds[i] = s
	}
	horizon := des.FromSeconds(cfg.HorizonSec)
	col := metrics.NewCollector(des.FromSeconds(cfg.WarmUpSec), horizon)
	col.SetSLO(cfg.SLOMS)

	var injs []*fault.Injector
	if cfg.Faults != nil {
		seed := cfg.Faults.Seed
		if seed == 0 {
			seed = cfg.Seed + 3
		}
		for i, s := range scheds {
			handler, _ := s.(sched.FaultHandler)
			inj, err := fault.NewInjector(cfg.Faults, eng, devs[i], handler, seed+uint64(i))
			if err != nil {
				return sim.Result{}, err
			}
			var marker fault.Marker
			if i == 0 {
				marker = col
			}
			inj.Install(marker)
			injs = append(injs, inj)
		}
	}

	var top sched.Scheduler = timedSched{scheds[0], tr, &tr.sched}
	var fleet *cluster.Fleet
	if n > 1 {
		members := make([]cluster.Member, n)
		for i, s := range scheds {
			members[i] = cluster.Member{Dev: devs[i], Sch: timedSched{s, tr, &tr.sched}}
		}
		var deviceFaults []fault.DeviceFault
		if cfg.Faults != nil {
			deviceFaults = cfg.Faults.DeviceFaults
		}
		fleet, err = cluster.New(eng, cluster.Config{
			Placement:    cfg.Placement,
			Failover:     cfg.Failover,
			AdmitCeiling: cfg.AdmitCeiling,
			Seed:         cfg.Seed + 4,
			DeviceFaults: deviceFaults,
		}, members, tasks, horizon)
		if err != nil {
			return sim.Result{}, err
		}
		fleet.Install(col)
		top = timedFleet{fleet, tr}
	}

	var pool rt.JobPool
	gen := workload.NewGeneratorSeeded(eng, top, cfg.Seed+2)
	gen.SetSink(timedSink{col, tr})
	gen.UsePool(&pool)
	gen.SetArrival(cfg.Arrival)
	gen.Start(tasks, horizon)

	start := time.Now()
	eng.RunUntil(horizon)
	tr.runUntil += time.Since(start)
	tr.events += eng.Fired()

	start = time.Now()
	sum := col.Summary()
	tr.summary += time.Since(start)

	for _, inj := range injs {
		st := inj.Stats()
		sum.Faults.Overruns += st.Overruns
		sum.Faults.OverrunMassMS += st.OverrunMassMS
		sum.Faults.TransientFaults += st.TransientFaults
		sum.Faults.Retries += st.Retries
		sum.Faults.Recoveries += st.Recoveries
		sum.Faults.SkippedJobs += st.SkippedJobs
		sum.Faults.KilledChains += st.KilledChains
	}
	if fleet != nil {
		fs := fleet.Stats()
		fs.FleetDegradedReleased = sum.Fleet.FleetDegradedReleased
		fs.FleetDegradedMissed = sum.Fleet.FleetDegradedMissed
		fs.FleetDegradedDMR = sum.Fleet.FleetDegradedDMR
		sum.Fleet = fs
		tr.migrations += fs.Migrations
		tr.shedReleases += fs.ShedReleases
	}

	pm := gpu.DefaultPowerModel()
	res := sim.Result{Name: cfg.Name, Tasks: cfg.NumTasks, Summary: sum}
	var util float64
	for _, d := range devs {
		util += d.Utilization()
		res.EnergyJoules += d.EnergyJoules(pm)
		res.AvgPowerW += d.AveragePowerW(pm)
		fast, lean, full := d.RecomputeStats()
		tr.recFast += fast
		tr.recLean += lean
		tr.recFull += full
		tr.kernels += d.CompletedKernels()
	}
	res.DeviceUtilization = util / float64(n)
	if res.AvgPowerW > 0 {
		res.FPSPerWatt = sum.TotalFPS / res.AvgPowerW
	}
	return res, nil
}

// timedFleet times the fleet dispatcher's OnRelease; its self time excludes
// the member schedulers' OnRelease calls it forwards synchronously.
type timedFleet struct {
	*cluster.Fleet
	tr *tracer
}

func (f timedFleet) OnRelease(j *rt.Job, now des.Time) {
	f.tr.timed(&f.tr.fleet, func() { f.Fleet.OnRelease(j, now) })
}
