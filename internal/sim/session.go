package sim

import (
	"sgprs/internal/cluster"
	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// Session executes simulation runs over reused infrastructure: one
// discrete-event engine (whose event free list survives across runs), one
// device (scratch buffers and slice capacities retained), one job pool, one
// streaming metrics collector, a profiler, and a cache of built task sets
// keyed by workload shape. A sweep that previously rebuilt all of this per
// point now pays for it once per worker, so steady-state sweep points run
// the online phase with almost no allocation.
//
// Reuse is invisible in the results: des.Engine.Reset and gpu.Device.Reset
// restore fresh-equivalent state (clock, sequence numbers, stochastic
// streams), recycled jobs and events are fully reinitialised before reuse,
// and cached task sets are re-profiled per run from the memoized WCET
// tables. TestSessionReuseBitIdentical pins Session.Run == RunWith for
// mixed-configuration sequences.
//
// A Session is single-threaded, like the engine it wraps: the parallel
// runner gives each worker its own. The zero value is not usable; call
// NewSession.
type Session struct {
	cache *memo.Cache

	eng *des.Engine
	// devs caches the devices across runs, Reset per run; a run uses the
	// first max(Devices, 1), and device 0 is the one fast-forward drives.
	devs []*gpu.Device
	// members is the run's device/scheduler pairing, its backing array
	// reused across runs.
	members   []cluster.Member
	pool      rt.JobPool
	collector *metrics.Collector

	prof    *profile.Profiler
	profCfg gpu.Config

	tasks map[taskSetKey][]*rt.Task

	// Fast-forward state (fastforward.go), reused across runs: the
	// fingerprint build buffer, the arena of stored boundary fingerprints
	// with their hash index, and the live-job warp dedup set. ffHash and
	// ffTrace are test hooks: ffHash overrides the fingerprint hash (the
	// collision-safety tests truncate it to force collisions) and ffTrace,
	// when set, fires at every release boundary — on the fast-forward and
	// the reference path alike — so the lockstep equivalence tests can
	// compare collector state boundary by boundary.
	ffBuf    []byte
	ffArena  []byte
	ffEnts   []ffEntry
	ffHashes map[uint64]int
	ffJobs   map[*rt.Job]bool
	ffHash   func([]byte) uint64
	ffTrace  func(now des.Time)
}

// taskSetKey identifies a built task set: everything Build derives tasks
// from. The graph is compared by identity, which the offline cache also
// relies on; with the default memoized reference graph, equal configurations
// share one pointer.
type taskSetKey struct {
	graph    *dnn.Graph
	tasks    int
	stages   int
	fps      float64
	jitterMS float64
	workVar  float64
	stagger  bool
}

// NewSession builds a session around the given offline-phase cache. A nil
// cache reproduces the uncached reference path: the reference graph is
// rebuilt and every task profiled from scratch each run (and, because task
// sets are keyed by graph identity, never reused across runs).
func NewSession(cache *memo.Cache) *Session {
	return &Session{
		cache: cache,
		eng:   des.NewEngine(),
		tasks: map[taskSetKey][]*rt.Task{},
	}
}

// Run executes one simulation on the session's reused infrastructure and
// returns its metrics, exactly as RunWith would for the same configuration
// and cache. It is the one run pipeline: a single-device run and a fleet
// (DESIGN.md §15) wire devices, schedulers, fault injectors, collector, and
// generator here alike. A single device's scheduler is the generator's
// target directly; cfg.Devices > 1 puts a cluster dispatcher in front of one
// scheduler per device, all on the one shared engine.
//
// Seeds: device i runs at cfg.GPU.Seed+i so a fleet's stochastic streams
// decorrelate; device i's fault injector at faultSeed+i likewise; the
// dispatcher's reserved stream at cfg.Seed+4 (the run seed's next unclaimed
// offset after GPU +1, workload +2, faults +3). All derived streams fork
// with distinct salts, so overlapping bases cannot collide.
func (s *Session) Run(cfg RunConfig) (Result, error) {
	if err := cfg.Normalize(); err != nil {
		return Result{}, err
	}
	model := defaultModel()

	s.eng.Reset()
	devs, err := s.devices(cfg, model)
	if err != nil {
		return Result{}, err
	}

	var graph *dnn.Graph
	if s.cache != nil {
		key := memo.GraphKey{Model: model, Name: "resnet18-ref", SMs: speedup.DeviceSMs, TargetMS: ReferenceLatencyMS}
		graph = s.cache.Graph(key, func() *dnn.Graph { return ReferenceGraph(model) })
	} else {
		graph = ReferenceGraph(model)
	}

	tasks, err := s.taskSet(graph, cfg)
	if err != nil {
		return Result{}, err
	}

	// Offline phase: profile stage WCETs in isolation on the smallest
	// context of the pool (conservative). Cached task sets are
	// re-profiled every run — the pool's minimum may differ between
	// configurations sharing a task shape — but with a cache that is a
	// table lookup, not a measurement.
	minSMs := cfg.ContextSMs[0]
	for _, c := range cfg.ContextSMs[1:] {
		if c < minSMs {
			minSMs = c
		}
	}
	if s.prof == nil || s.profCfg != cfg.GPU {
		s.prof = profile.New(model, cfg.GPU)
		s.profCfg = cfg.GPU
	}
	if s.cache != nil {
		if err := s.cache.ProfileTasks(s.prof, tasks, minSMs); err != nil {
			return Result{}, err
		}
	} else {
		for _, t := range tasks {
			if err := s.prof.ProfileTask(t, minSMs); err != nil {
				return Result{}, err
			}
		}
	}

	members := s.members[:0]
	for _, d := range devs {
		sch, err := buildScheduler(cfg)
		if err != nil {
			return Result{}, err
		}
		if err := sch.Attach(s.eng, d, tasks); err != nil {
			return Result{}, err
		}
		members = append(members, cluster.Member{Dev: d, Sch: sch})
	}
	s.members = members

	horizon := des.FromSeconds(cfg.HorizonSec)
	warmUp := des.FromSeconds(cfg.WarmUpSec)
	if s.collector == nil {
		s.collector = metrics.NewCollector(warmUp, horizon)
	} else {
		s.collector.Reset(warmUp, horizon)
	}
	s.collector.SetSLO(cfg.SLOMS)

	// Fault injection (DESIGN.md §13) runs per device: every device gets its
	// own injector (own forked streams, own device hook, its scheduler as
	// recovery handler), drawing from dedicated streams so installing it
	// never perturbs the workload or contention-jitter cursors. Degradation
	// windows apply to every device alike, so only device 0's injector flips
	// the collector's degraded marker: the edges coincide across devices, and
	// one toggle per edge is the collector's contract. With cfg.Faults nil
	// none of this runs and the dynamics are bit-identical to a fault-free
	// build.
	var injs []*fault.Injector
	var deviceFaults []fault.DeviceFault
	if cfg.Faults != nil {
		deviceFaults = cfg.Faults.DeviceFaults
		base := cfg.Faults.Seed
		if base == 0 {
			base = cfg.Seed + 3
		}
		for i, m := range members {
			handler, _ := m.Sch.(sched.FaultHandler)
			inj, err := fault.NewInjector(cfg.Faults, s.eng, m.Dev, handler, base+uint64(i))
			if err != nil {
				return Result{}, err
			}
			var marker fault.Marker
			if i == 0 {
				marker = s.collector
			}
			inj.Install(marker)
			injs = append(injs, inj)
		}
	}

	target := members[0].Sch
	var fleet *cluster.Fleet
	if len(devs) > 1 {
		fleet, err = cluster.New(s.eng, cluster.Config{
			Placement:    cfg.Placement,
			Failover:     cfg.Failover,
			AdmitCeiling: cfg.AdmitCeiling,
			Seed:         cfg.Seed + 4,
			DeviceFaults: deviceFaults,
		}, members, tasks, horizon)
		if err != nil {
			return Result{}, err
		}
		fleet.Install(s.collector)
		target = fleet
	}

	gen := workload.NewGeneratorSeeded(s.eng, target, cfg.Seed+2)
	gen.SetSink(s.collector)
	gen.UsePool(&s.pool)
	gen.SetArrival(cfg.Arrival)
	gen.Start(tasks, horizon)
	// The fleet dispatcher is not a recognised steady-state scheduler, so a
	// fleet run always takes runToHorizon's reference path; going through it
	// keeps the lockstep trace hooks working.
	ff := s.runToHorizon(cfg, target, gen, tasks, warmUp, horizon)

	sum := s.collector.Summary()
	// The collector filled the Degraded* fields of sum.Faults; the
	// injection counters live in the injectors.
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
		// The collector filled the fleet-degraded attribution; everything
		// else in FleetStats lives in the dispatcher.
		fs := fleet.Stats()
		fs.FleetDegradedReleased = sum.Fleet.FleetDegradedReleased
		fs.FleetDegradedMissed = sum.Fleet.FleetDegradedMissed
		fs.FleetDegradedDMR = sum.Fleet.FleetDegradedDMR
		sum.Fleet = fs
	}

	// Device rollups: utilization averages over the devices (each is
	// already a [0,1] mean over time), energy and power add up, in fixed
	// device order.
	pm := gpu.DefaultPowerModel()
	res := Result{
		Name:        cfg.Name,
		Tasks:       cfg.NumTasks,
		Summary:     sum,
		FastForward: ff,
	}
	var util float64
	for _, d := range devs {
		util += d.Utilization()
		res.EnergyJoules += d.EnergyJoules(pm)
		res.AvgPowerW += d.AveragePowerW(pm)
	}
	res.DeviceUtilization = util / float64(len(devs))
	if res.AvgPowerW > 0 {
		res.FPSPerWatt = sum.TotalFPS / res.AvgPowerW
	}
	return res, nil
}

// devices resets the session's cached devices for the run, creating any the
// cache lacks, and returns the run's max(cfg.Devices, 1) of them.
func (s *Session) devices(cfg RunConfig, model *speedup.Model) ([]*gpu.Device, error) {
	n := max(cfg.Devices, 1)
	for i := 0; i < n; i++ {
		gi := cfg.GPU
		gi.Seed = cfg.GPU.Seed + uint64(i)
		if i < len(s.devs) {
			if err := s.devs[i].Reset(gi); err != nil {
				return nil, err
			}
		} else {
			d, err := gpu.NewDevice(s.eng, model, gi)
			if err != nil {
				return nil, err
			}
			s.devs = append(s.devs, d)
		}
		if cfg.Observer != nil {
			s.devs[i].SetObserver(cfg.Observer)
		}
	}
	return s.devs[:n], nil
}

// taskSet returns the built task set for the configuration, reusing a
// previous run's when the workload shape matches. Tasks are immutable during
// the online phase (schedulers and jobs only read them) and re-profiled per
// run, so sharing them across runs cannot alter results.
//
// Without an offline cache the reference graph is rebuilt per run, so the
// graph-keyed lookup could never hit; caching would only accumulate dead
// entries for the session's lifetime. The uncached session builds fresh and
// stores nothing.
func (s *Session) taskSet(graph *dnn.Graph, cfg RunConfig) ([]*rt.Task, error) {
	key := taskSetKey{
		graph:    graph,
		tasks:    cfg.NumTasks,
		stages:   cfg.Stages,
		fps:      cfg.FPS,
		jitterMS: cfg.ReleaseJitterMS,
		workVar:  cfg.WorkVariation,
		stagger:  cfg.Stagger,
	}
	if tasks, ok := s.tasks[key]; ok {
		return tasks, nil
	}
	specs := workload.Replicate(workload.Options{
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
	})
	tasks, err := workload.Build(specs)
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		s.tasks[key] = tasks
	}
	return tasks, nil
}
