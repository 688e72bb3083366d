package main

import (
	"context"
	"errors"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
)

const (
	// fleetOutstanding is how many timing-only requests each
	// fleet-estimate generator keeps in flight.
	fleetOutstanding = 16
	// fleetPasses is how many shuffled passes over the request mix each
	// generator's ring holds.
	fleetPasses = 8
	// fleetSamples bounds the latencies kept per generator in each part
	// of a window.
	fleetSamples = 1 << 18
)

// fleetRunner is fleet-estimate: a closed loop of timing-only requests
// through Cluster.Submit and Future.Wait on a four-node fleet.
type fleetRunner struct {
	liveBase
	streams   [][]estimateReq
	pos       []int
	batchWait []float64 // last window
	accs      []*fleetAcc
}

// fleetAcc is one generator goroutine's tally, allocated once so a
// window records without allocating.
type fleetAcc struct {
	out   outcomes
	tl    *timeline
	sim   simTally
	wait  *sampler
	inSLO int64
	recs  []batchRec
}

func prepareFleet(f *fixture, seed int64) (runner, error) {
	r := &fleetRunner{liveBase: liveBase{f: f}}
	g := generators()
	for w := 0; w < g; w++ {
		r.streams = append(r.streams, estimateStream(seed, w, fleetPasses))
		r.accs = append(r.accs, &fleetAcc{
			tl:   newTimeline(fleetSamples, seed+int64(w)),
			wait: newSampler(1<<16, seed+int64(w)+200),
			recs: make([]batchRec, 0, maxRecs),
		})
	}
	r.pos = make([]int, g)
	return r, nil
}

func (r *fleetRunner) close() {}

// fleetPending is one in-flight request.
type fleetPending struct {
	fut       *core.Future
	t0        time.Time
	batch     int
	req, root uint64
}

func (r *fleetRunner) window(d time.Duration, tr *tracer) (*window, error) {
	fleet := r.f.srv.Cluster()
	ctx := context.Background()
	for _, a := range r.accs {
		*a = fleetAcc{tl: a.tl, wait: a.wait, recs: a.recs[:0]}
		a.wait.reset()
	}
	mem0 := r.begin(tr)
	for _, a := range r.accs {
		a.tl.begin(time.Now(), d)
	}
	wall := closedLoop(len(r.accs), d, func(w int, end time.Time) {
		a := r.accs[w]
		stream := r.streams[w]
		var ring [fleetOutstanding]fleetPending
		head, n := 0, 0
		collect := func() {
			p := ring[head]
			head = (head + 1) % fleetOutstanding
			n--
			w0 := time.Now()
			c, err := p.fut.Wait(ctx)
			t := time.Now()
			if tr != nil {
				tr.record("future.Wait", tr.id(), p.root, p.req, w0, t)
				tr.record("request", p.root, 0, p.req, p.t0, t)
			}
			switch {
			case err != nil:
				a.out.Failed++
			case c.Err == nil:
				a.out.OK++
				l := t.Sub(p.t0)
				a.tl.add(p.t0, float64(l.Nanoseconds())/1e6)
				a.sim.add(r.f.service, c.Decision.Model, c.Decision.Device, p.batch, c.BatchSize, c.EnergyJ)
				a.wait.add(float64(c.Wait.Nanoseconds()) / 1e3)
				if l <= sloLimit {
					a.inSLO++
				}
				if len(a.recs) < cap(a.recs) {
					a.recs = append(a.recs, batchRec{Model: c.Decision.Model, Batch: c.BatchSize, Policy: c.Decision.Policy, Device: c.Decision.Device})
				}
			case errors.Is(c.Err, core.ErrDeadlineExceeded):
				a.out.Expired++
			default:
				a.out.Failed++
			}
		}
		for time.Now().Before(end) {
			for n < fleetOutstanding {
				q := stream[r.pos[w]%len(stream)]
				r.pos[w]++
				req, root := uint64(r.pos[w])<<1|uint64(w), tr.id()
				t0 := time.Now()
				fut, err := fleet.Submit(ctx, core.PipelineRequest{Model: q.Model, Policy: q.Policy, Batch: q.Batch})
				a.out.Attempted++
				if tr != nil {
					tr.record("cluster.Submit", tr.id(), root, req, t0, time.Now())
				}
				if err != nil {
					countSubmitError(&a.out, err)
					break // refused: collect before offering more
				}
				ring[(head+n)%fleetOutstanding] = fleetPending{fut: fut, t0: t0, batch: q.Batch, req: req, root: root}
				n++
			}
			if n > 0 {
				collect()
			}
		}
		for n > 0 {
			collect()
		}
	})
	win := &window{wall: wall}
	var tls []*timeline
	var sim []*simTally
	var wait []*sampler
	for _, a := range r.accs {
		win.out.addAll(a.out)
		win.inSLO += a.inSLO
		tls, sim, wait = append(tls, a.tl), append(sim, &a.sim), append(wait, a.wait)
	}
	r.end(tr, win, mem0)
	win.parts = parts(tls...)
	win.addSim(sim)
	r.batchWait = merged(wait...)
	for _, a := range r.accs {
		r.keep(a.recs)
	}
	return win, nil
}

// countSubmitError files a refused submission.
func countSubmitError(o *outcomes, err error) {
	switch {
	case errors.Is(err, core.ErrDeadlineInfeasible):
		o.Rejected++
	case errors.Is(err, core.ErrAdmissionFull), errors.Is(err, core.ErrPipelineClosed),
		errors.Is(err, core.ErrNodeDraining), errors.Is(err, core.ErrNodeDown),
		errors.Is(err, cluster.ErrNoHealthyNodes), errors.Is(err, cluster.ErrBrownoutShed):
		o.Shed++
	default:
		o.Failed++
	}
}

func (r *fleetRunner) layers(w *window, tr *tracer, vals map[string]float64) {
	vals["cluster.submit_us_p50"] = tr.p("cluster.Submit", 50, time.Microsecond)
	vals["cluster.submit_us_p99"] = tr.p("cluster.Submit", 99, time.Microsecond)
	vals["pipeline.wait_us_p50"] = tr.p("future.Wait", 50, time.Microsecond)
	vals["pipeline.wait_us_p99"] = tr.p("future.Wait", 99, time.Microsecond)
	vals["pipeline.batch_wait_us_p50"] = median(r.batchWait)
	r.fleetLayers(w.out.Attempted, vals)
}
