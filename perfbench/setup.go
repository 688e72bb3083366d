package main

import (
	"fmt"
	"runtime"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/models"
	"bomw/internal/opencl"
	"bomw/internal/server"
	"bomw/internal/workload/scenario"
)

// programSeed is the seed the served system is built with, the bomwsrv
// default. The benchmark's --seed drives only the generated inputs, so
// every run measures the same trained system.
const programSeed = 1

// servingConfig is the bomwsrv default pipeline configuration.
func servingConfig() core.PipelineConfig {
	return core.PipelineConfig{
		Window:           2 * time.Millisecond,
		MaxBatch:         64,
		QueueDepth:       256,
		DeviceQueueDepth: 8,
	}
}

// build says what a workload serves from: an HTTP server over an n-node
// fleet behind the named routing policy, or (nodes == 0) a virtual-clock
// scenario backend on one scheduler.
type build struct {
	nodes int
	route string
}

// fixture is one set-up system.
type fixture struct {
	sched   *core.Scheduler
	srv     *server.Server             // nil for a scenario backend
	backend *scenario.SchedulerBackend // nil for a server
	service serviceTimes
}

func (f *fixture) close() {
	if f.srv != nil {
		f.srv.Close()
	}
}

// setupTimes are the stage times of one production set-up.
type setupTimes struct {
	New, Load, Build, Total float64 // seconds
}

// setUp performs the production set-up bomwsrv performs: train the
// scheduler over every characterisation model, load the five paper
// models, then build the serving fleet (or the scenario backend).
func setUp(b build) (*fixture, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	sched, err := core.New(core.Config{TrainModels: models.AllModels(), Seed: programSeed})
	if err != nil {
		return nil, t, fmt.Errorf("training the scheduler: %w", err)
	}
	t1 := time.Now()
	for _, spec := range models.PaperModels() {
		if err := sched.LoadModel(spec, programSeed); err != nil {
			return nil, t, fmt.Errorf("loading %s: %w", spec.Name, err)
		}
	}
	t2 := time.Now()
	f := &fixture{sched: sched}
	if b.nodes == 0 {
		f.backend = scenario.NewSchedulerBackend(sched)
	} else {
		policy, err := cluster.PolicyByName(b.route, programSeed)
		if err != nil {
			return nil, t, err
		}
		f.srv, err = server.NewCluster(sched, programSeed, servingConfig(), b.nodes,
			cluster.Config{Policy: policy, Seed: programSeed})
		if err != nil {
			return nil, t, fmt.Errorf("building the fleet: %w", err)
		}
	}
	t3 := time.Now()
	t.New = t1.Sub(t0).Seconds()
	t.Load = t2.Sub(t1).Seconds()
	t.Build = t3.Sub(t2).Seconds()
	t.Total = t3.Sub(t0).Seconds()
	return f, t, nil
}

// setupResult is the median of several set-ups and the live heap of the
// one kept.
type setupResult struct {
	times  setupTimes // per-stage medians
	heapMB float64
}

// setUpRepeated sets up reps (at least 2) times, closing all but the
// last system, and reports per-stage medians. The first system, once
// closed, measures the kept one's service times, so the served devices
// never see those calls. The heap is read after a forced collection, so
// it is the memory the kept system holds once set up.
func setUpRepeated(b build, reps int) (*fixture, setupResult, error) {
	var res setupResult
	if reps < 2 {
		return nil, res, fmt.Errorf("set-up needs at least 2 repetitions, got %d", reps)
	}
	var keep *fixture
	var service serviceTimes
	var all []setupTimes
	for i := 0; i < reps; i++ {
		if keep != nil {
			keep.close()
			if service == nil {
				var err error
				if service, err = measureServiceTimes(keep.sched.Runtime()); err != nil {
					return nil, res, err
				}
			}
			keep = nil
		}
		runtime.GC()
		f, t, err := setUp(b)
		if err != nil {
			return nil, res, err
		}
		keep = f
		all = append(all, t)
	}
	keep.service = service
	pick := func(get func(setupTimes) float64) float64 {
		vals := make([]float64, len(all))
		for i, t := range all {
			vals[i] = get(t)
		}
		return median(vals)
	}
	res.times = setupTimes{
		New:   pick(func(t setupTimes) float64 { return t.New }),
		Load:  pick(func(t setupTimes) float64 { return t.Load }),
		Build: pick(func(t setupTimes) float64 { return t.Build }),
		Total: pick(func(t setupTimes) float64 { return t.Total }),
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return keep, res, nil
}

// maxServiceBatch is the largest batch the service-time table covers:
// a batch flushes once it reaches MaxBatch samples, so it holds fewer
// than MaxBatch plus the largest request (16 samples).
const maxServiceBatch = 128

// serviceTimes is the device model's execution time, in ms, of a batch
// of each size on an idle device at full clocks, by model and device: a
// batch's simulated service time without the queue ahead of it.
type serviceTimes map[serviceKey][]float64

type serviceKey struct{ model, device string }

// measureServiceTimes times every paper model at every batch size on
// every device of rt with Runtime.Estimate, each call an hour of virtual
// time after the last so the device is idle, and warmed first.
func measureServiceTimes(rt *opencl.Runtime) (serviceTimes, error) {
	st := serviceTimes{}
	var at time.Duration
	for _, m := range paperModelNames() {
		for _, d := range rt.Devices() {
			ms := make([]float64, maxServiceBatch+1)
			for n := 1; n <= maxServiceBatch; n++ {
				at += time.Hour
				d.Sim.Warm(at)
				res, err := rt.Estimate(d.Name(), m, n, at)
				if err != nil {
					return nil, fmt.Errorf("timing %s batch %d on %s: %w", m, n, d.Name(), err)
				}
				ms[n] = float64(res.Latency().Nanoseconds()) / 1e6
			}
			st[serviceKey{m, d.Name()}] = ms
		}
	}
	return st, nil
}

// of returns the service time in ms of a batch of n samples of model on
// device, and whether the table holds it.
func (st serviceTimes) of(model, device string, n int) (float64, bool) {
	ms := st[serviceKey{model, device}]
	if n < 1 || n >= len(ms) {
		return 0, false
	}
	return ms[n], true
}
