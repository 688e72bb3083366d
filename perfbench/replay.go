package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"bomw/internal/core"
	"bomw/internal/device"
	"bomw/internal/workload/scenario"
)

// replayRunner is virtual-replay: the MLPerf Server scenario on the
// virtual clock through scenario.Run, for every paper model under every
// policy, repeated until the window has passed.
type replayRunner struct {
	f        *fixture
	params   []scenario.Params
	be       *timedBackend
	before   core.Stats
	after    core.Stats
	commands atomic.Int64
}

// timedBackend wraps the program's scenario backend to time each query
// and record its virtual-clock outcome.
type timedBackend struct {
	inner   *scenario.SchedulerBackend
	slo     time.Duration
	tr      *tracer
	parent  uint64 // the scenario.Run span of the current run
	tl      *timeline
	recSim  bool    // record virtual latencies (first repetition only)
	simMS   float64 // Σ virtual latency of the recorded queries, ms
	simN    int64   // recorded queries
	queries int64
	samples int64
	inSLO   int64
	energyJ float64
	recs    []batchRec
}

func (b *timedBackend) Name() string { return b.inner.Name() }
func (b *timedBackend) Reset()       { b.inner.Reset() }

func (b *timedBackend) Run(model string, batch int, pol core.Policy, at time.Duration) (scenario.Exec, error) {
	t0 := time.Now()
	ex, err := b.inner.Run(model, batch, pol, at)
	t1 := time.Now()
	if err != nil {
		return ex, err
	}
	b.tr.record("backend.Run", b.tr.id(), b.parent, uint64(b.queries+1), t0, t1)
	b.queries++
	b.tl.add(t0, float64(t1.Sub(t0).Nanoseconds())/1e6)
	virt := ex.Completed - at
	if b.recSim {
		b.simMS += float64(virt.Nanoseconds()) / 1e6
		b.simN++
	}
	if virt <= b.slo {
		b.inSLO++
	}
	b.samples += int64(batch)
	b.energyJ += ex.EnergyJ
	if len(b.recs) < cap(b.recs) {
		b.recs = append(b.recs, batchRec{Model: model, Batch: batch, Policy: pol, Device: ex.Device})
	}
	return ex, nil
}

func prepareReplay(f *fixture, seed int64) (runner, error) {
	params := replayParams(seed)
	r := &replayRunner{f: f, params: params, be: &timedBackend{
		inner: f.backend,
		tl:    newTimeline(1<<18, seed),
		recs:  make([]batchRec, 0, maxRecs),
	}}
	return r, nil
}

func (r *replayRunner) close() {}

func (r *replayRunner) window(d time.Duration, tr *tracer) (*window, error) {
	be := r.be
	*be = timedBackend{inner: be.inner, tr: tr, tl: be.tl, recs: be.recs[:0]}
	rt := r.f.sched.Runtime()
	if tr != nil {
		r.commands.Store(0)
		rt.SetObserver(func(device.Report) { r.commands.Add(1) })
		defer rt.SetObserver(nil)
	}
	win := &window{}
	r.before = r.f.sched.Stats()
	mem0 := readMem()
	start := time.Now()
	end := start.Add(d)
	be.tl.begin(start, d)
	// Every repetition replays the same seeded scenarios, so the
	// virtual-clock figures, recorded on the first, do not depend on how
	// many repetitions fit in the window.
	for rep := 0; rep == 0 || time.Now().Before(end); rep++ {
		be.recSim = rep == 0
		for _, p := range r.params {
			be.slo = p.SLO
			id := tr.id()
			be.parent = id
			t0 := time.Now()
			rp, err := scenario.Run(be, p)
			if err != nil {
				return nil, fmt.Errorf("scenario %s %s: %w", p.Model, p.Policy, err)
			}
			tr.record("scenario.Run", id, 0, 0, t0, time.Now())
			win.out.Attempted += int64(p.Queries)
			win.out.OK += int64(rp.Queries)
			win.out.Failed += int64(p.Queries - rp.Queries)
			win.simSeconds += float64(rp.MakespanUS) / 1e6
		}
	}
	win.wall = time.Since(start).Seconds()
	win.allocBytes = readMem() - mem0
	r.after = r.f.sched.Stats()
	if be.queries != win.out.OK {
		win.bad = append(win.bad, fmt.Sprintf("virtual-replay: backend ran %d queries, reports count %d", be.queries, win.out.OK))
	}
	win.samples, win.inSLO, win.energyJ = be.samples, be.inSLO, be.energyJ
	win.parts, win.simLatMS, win.simN = parts(be.tl), be.simMS, be.simN
	return win, nil
}

func (r *replayRunner) records() []batchRec { return r.be.recs }

func (r *replayRunner) layers(w *window, tr *tracer, vals map[string]float64) {
	schedLayers(r.f, []core.Stats{r.before}, []core.Stats{r.after}, vals)
	vals["device.commands_per_batch"] = ratio(float64(r.commands.Load()), float64(r.be.queries))
}
