package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bomw/internal/core"
	"bomw/internal/device"
)

// runner drives one prepared workload.
type runner interface {
	// window drives the workload for d and returns what it observed; a
	// non-nil tracer records spans around every call into the program.
	window(d time.Duration, tr *tracer) (*window, error)
	// layers fills the per-layer values the last window's spans and
	// counter snapshots give.
	layers(w *window, tr *tracer, vals map[string]float64)
	// records are (model, batch, policy, device) of batches the program
	// actually formed, for the probe phase.
	records() []batchRec
	close()
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	build build
	// realMath is whether the path runs the tensor math, so the probe
	// phase times Classify and the forward pass on its batches.
	realMath bool
	prepare  func(f *fixture, seed int64) (runner, error)
}

var workloads = map[string]workload{
	"http-real":      {build: build{nodes: 1, route: "round-robin"}, realMath: true, prepare: prepareHTTP},
	"fleet-estimate": {build: build{nodes: 4, route: "least-loaded"}, prepare: prepareFleet},
	"virtual-replay": {build: build{}, prepare: prepareReplay},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// batchRec is one batch the program formed.
type batchRec struct {
	Model  string
	Batch  int
	Policy core.Policy
	Device string
}

// maxRecs bounds the batch records one generator goroutine keeps per
// window (preallocated, so recording never allocates in the window).
const maxRecs = 1024

// liveBase is the part of a workload served by the HTTP server's fleet:
// counter snapshots around each window, the accounting check, and the
// command observer of a traced window.
type liveBase struct {
	f             *fixture
	before, after fleetSnap
	commands      atomic.Int64
	recs          []batchRec // batches of the last window, kept by the window's goroutine
}

// begin starts a window: it forgets the previous window's batch
// records, attaches the command observer when traced, then snapshots the
// counters and the allocation total.
func (b *liveBase) begin(tr *tracer) (mem0 uint64) {
	if tr != nil {
		b.commands.Store(0)
		for _, n := range b.f.srv.Nodes() {
			n.Scheduler().Runtime().SetObserver(func(device.Report) { b.commands.Add(1) })
		}
	}
	b.recs = b.recs[:0]
	b.before = snapshot(b.f.srv)
	return readMem()
}

// end closes a window once every request of it has resolved: it reads
// the allocation total, snapshots the counters, detaches the observer
// and checks the accounting identities.
func (b *liveBase) end(tr *tracer, w *window, mem0 uint64) {
	w.allocBytes = readMem() - mem0
	b.after = settledSnapshot(b.f.srv, b.before)
	if tr != nil {
		for _, n := range b.f.srv.Nodes() {
			n.Scheduler().Runtime().SetObserver(nil)
		}
	}
	w.bad = append(w.bad, checkAccounting(w.out, b.before, b.after)...)
}

func (b *liveBase) keep(recs []batchRec) { b.recs = append(b.recs, recs...) }

func (b *liveBase) records() []batchRec { return b.recs }

// simTally accumulates the simulated figures of one generator
// goroutine's requests that completed ok.
type simTally struct {
	latMS   float64 // Σ service time of each request's batch, ms
	n       int64   // requests in latMS
	busyMS  float64 // device time the requests' samples occupied, ms
	samples int64
	energyJ float64
	missing int64 // requests whose batch the service-time table lacks
}

// add records a request of k samples served in a batch of n samples of
// model on device. Its simulated latency is the batch's service time:
// Completion.Latency without the aggregation wait and the device queue.
// It occupies its k/n share of the batch's service time, as it carries
// that share of the batch's energy.
func (t *simTally) add(st serviceTimes, model, device string, k, n int, energyJ float64) {
	t.samples += int64(k)
	t.energyJ += energyJ
	ms, ok := st.of(model, device, n)
	if !ok {
		t.missing++
		return
	}
	t.latMS += ms
	t.n++
	t.busyMS += ms * float64(k) / float64(n)
}

// addSim folds the generators' tallies into the window.
func (w *window) addSim(ts []*simTally) {
	for _, t := range ts {
		w.samples += t.samples
		w.energyJ += t.energyJ
		w.simLatMS += t.latMS
		w.simN += t.n
		w.simSeconds += t.busyMS / 1e3
		if t.missing > 0 {
			w.bad = append(w.bad, fmt.Sprintf("%d requests were served in batches the service-time table does not cover", t.missing))
		}
	}
}

// fleetLayers fills the per-layer values the fleet's own counters give
// over the last window.
func (b *liveBase) fleetLayers(attempted int64, vals map[string]float64) {
	p0, p1 := pipeTotals(b.before.Pipes), pipeTotals(b.after.Pipes)
	batches := float64(p1.Batches - p0.Batches)
	vals["pipeline.requests_per_batch"] = ratio(float64(p1.Submitted-p0.Submitted), batches)
	vals["pipeline.flush_size_share"] = ratio(float64(p1.SizeFlushes-p0.SizeFlushes), batches)
	vals["pipeline.flush_window_share"] = ratio(float64(p1.WindowFlushes-p0.WindowFlushes), batches)
	vals["pipeline.flush_idle_share"] = ratio(float64(p1.IdleFlushes-p0.IdleFlushes), batches)
	vals["pipeline.shed_share"] = ratio(float64(p1.Shed-p0.Shed), float64(attempted))
	vals["pipeline.infeasible_share"] = ratio(float64(p1.Infeasible-p0.Infeasible), float64(attempted))
	vals["pipeline.expired_share"] = ratio(float64(p1.Expired-p0.Expired), float64(attempted))

	var routed, rerouted, maxRouted float64
	for i, n := range b.after.Fleet.PerNode {
		r := float64(n.Routed - b.before.Fleet.PerNode[i].Routed)
		routed += r
		rerouted += float64(n.Rerouted - b.before.Fleet.PerNode[i].Rerouted)
		if r > maxRouted {
			maxRouted = r
		}
	}
	vals["cluster.reroute_share"] = ratio(rerouted, routed)
	vals["cluster.node_imbalance"] = ratio(maxRouted, routed/float64(len(b.after.Fleet.PerNode)))
	vals["cluster.route_failures"] = float64(b.after.Fleet.RouteFailures - b.before.Fleet.RouteFailures)

	schedLayers(b.f, b.before.Scheds, b.after.Scheds, vals)
	vals["device.commands_per_batch"] = ratio(float64(b.commands.Load()), batches)
}

// schedLayers fills the scheduler and device-share values from scheduler
// counter deltas summed over nodes.
func schedLayers(f *fixture, before, after []core.Stats, vals map[string]float64) {
	kinds := map[string]string{}
	for _, d := range f.sched.Runtime().Devices() {
		kinds[d.Name()] = d.Kind().String()
	}
	var dec, spills, hits, misses float64
	share := map[string]float64{}
	for i := range after {
		dec += float64(after[i].Decisions - before[i].Decisions)
		spills += float64(after[i].Spills - before[i].Spills)
		hits += float64(after[i].DecisionCacheHits - before[i].DecisionCacheHits)
		misses += float64(after[i].DecisionCacheMisses - before[i].DecisionCacheMisses)
		for name, n := range after[i].PerDevice {
			share[kinds[name]] += float64(n - before[i].PerDevice[name])
		}
	}
	vals["scheduler.cache_hit_ratio"] = ratio(hits, hits+misses)
	vals["scheduler.spill_share"] = ratio(spills, dec)
	for _, k := range []string{"cpu", "igpu", "dgpu"} {
		vals["device.batch_share."+k] = ratio(share[k], dec)
	}
}

// closedLoop runs fn on workers goroutines until d has passed, each
// sending its next request only after the previous one completed. It
// returns the wall time from start until the last goroutine finished.
func closedLoop(workers int, d time.Duration, fn func(worker int, end time.Time)) float64 {
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn(g, end)
		}(g)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// generators is the number of load-generator goroutines (and
// connections): two, so the program sees concurrent callers, or one per
// CPU on a host with fewer CPUs.
func generators() int { return min(2, runtime.NumCPU()) }
