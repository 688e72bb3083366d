package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bomw/internal/opencl"
	"bomw/internal/tensor"
)

// Pipeline is the concurrent serving path over a trained scheduler — the
// online form of the Fig. 5 system. Where Scheduler.Classify serves one
// request synchronously, the pipeline stages requests through:
//
//	admission → live batching → per-device worker queues → completion
//
// (1) Admission: a bounded queue with load-shedding backpressure. When
// the queue is full, Submit fails fast with ErrAdmissionFull instead of
// letting latency collapse — the MLPerf "Server scenario" response to
// overload. Every request carries a context for deadlines/cancellation,
// and may carry a latency SLO (PipelineRequest.Deadline, with per-model
// defaults in PipelineConfig): admission control rejects SLO-carrying
// requests that are already predicted to miss their deadline given the
// live queue state and the scheduler's latency model
// (ErrDeadlineInfeasible), so overload sheds doomed work first.
//
// (2) Live batching: arriving requests aggregate per (model, policy)
// until the oldest has waited Window or the batch reaches MaxBatch
// samples, flushed by wall-clock timers and size triggers. The batching
// front-end is sharded: each (model, policy) aggregation key hashes to
// one of admitShards() independent admit loops, so distinct
// models batch and flush in parallel instead of funnelling through one
// global goroutine, while every request stream for one key still lands
// on a single shard — per-key aggregation and dispatch order are
// identical to the unsharded pipeline. The batcher is work-conserving
// (concurrency-aware): while the system is idle a request dispatches
// immediately; batches only form while earlier work is in flight, so
// batching cost is paid exactly when it buys device efficiency (§IV-C:
// batch size is the decisive variable). Requests whose context ended or
// whose deadline passed while aggregating are culled here, before any
// device time is spent.
//
// (3) Per-device worker queues: one worker goroutine per device executes
// batches in order, culling dead requests again at dequeue — a cancelled
// or deadline-expired request never reaches the execute path. Queue
// occupancy is reported back into the scheduler's spill logic
// (Config.MaxQueueDelay, §V overload adaptation), so spilling reads
// *real* queued work instead of only the device simulator's committed
// busy horizon. Deadline-carrying batches are routed through
// SelectWithDeadline so the device pick honours the tightest SLO in the
// batch.
//
// (4) Completion: results are delivered through per-request futures;
// aggregated batches are split back into per-request class slices with
// proportional energy accounting. Every future resolves exactly once.
type Pipeline struct {
	sched *Scheduler
	cfg   PipelineConfig

	// shards are the parallel admission/batching loops; an aggregation
	// key always hashes to the same shard (shardMask is len(shards)-1,
	// a power of two).
	shards    []*admitShard
	shardMask uint32
	shardWG   sync.WaitGroup

	closing chan struct{} // Close() was called: drain and stop
	done    chan struct{} // fully drained: releases window timers
	drained chan struct{}

	// closeMu gates admission against Close: Submit holds the read side
	// across its shard hand-off (many submitters in parallel), Close
	// takes the write side once to flip closed.
	closeMu sync.RWMutex
	closed  bool

	queues   map[string]*deviceQueue
	inflight atomic.Int64   // batches queued or executing
	workers  sync.WaitGroup // device workers + recovery prober still running

	// windowNow is the live batching window in nanoseconds. It starts at
	// cfg.Window and is rescaled at run time by SetWindowScale — the
	// fleet brownout controller widens it under overload to trade
	// latency for batch efficiency, and restores it on recovery.
	windowNow atomic.Int64

	// latEWMA tracks the virtual completion latency (arrival →
	// completion) as an EWMA over delivered batches, in nanoseconds —
	// the per-node straggler signal the cluster tier compares across the
	// fleet. Only successful deliveries fold in; failures and culls are
	// accounted elsewhere.
	latEWMA atomic.Int64

	// capacity is the admission budget (per-shard depth summed), computed
	// once at construction — the denominator of the cluster brownout
	// controller's occupancy ratio.
	capacity int64

	submitted  atomic.Int64
	shed       atomic.Int64
	infeasible atomic.Int64
	cancelled  atomic.Int64
	expired    atomic.Int64
	failed     atomic.Int64
	completed  atomic.Int64
	batches    atomic.Int64
	sizeFl     atomic.Int64
	windowFl   atomic.Int64
	idleFl     atomic.Int64
	drainFl    atomic.Int64
	retries    atomic.Int64
	failovers  atomic.Int64
	execFails  atomic.Int64

	// testExecHook, when set, runs in each device worker before a batch
	// executes — tests use it to hold workers and fill queues
	// deterministically.
	testExecHook func(device string)
}

// PipelineConfig parameterises the serving pipeline.
type PipelineConfig struct {
	// Window is the maximum time the oldest request of a live batch may
	// wait before the batch is flushed, on a wall-clock timer. Defaults
	// to 2 ms.
	Window time.Duration
	// MaxBatch flushes a batch as soon as it aggregates this many
	// samples. Defaults to 64.
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue sheds load
	// (Submit returns ErrAdmissionFull). Defaults to 256. The depth is
	// divided across the admission shards (at least one slot per
	// shard), so a single hot model sheds at roughly
	// QueueDepth/admitShards() queued requests — backpressure stays
	// proportional to the paths actually congested instead of letting
	// one model consume the whole budget.
	QueueDepth int
	// DeviceQueueDepth bounds each device's worker queue; full device
	// queues exert backpressure on batch flushing, which in turn fills
	// admission. Defaults to 8.
	DeviceQueueDepth int
	// HoldWindow disables the work-conserving idle fast-path: aggregates
	// always wait for the window timer or the size trigger, so batch
	// formation depends only on arrivals, Window and MaxBatch. Default
	// false: a request arriving into an idle system dispatches
	// immediately.
	HoldWindow bool
	// Clock supplies the virtual time requests are charged at. Defaults
	// to wall-clock time since the pipeline was created (the serving
	// mapping internal/server uses).
	Clock func() time.Duration
	// MaxAttempts bounds how many devices one batch may try: the first
	// execution plus failover retries. On an execution error the batch
	// re-Selects with every failed device excluded and runs on the
	// next-ranked device, so one bad device degrades throughput instead
	// of failing requests. Defaults to 3.
	MaxAttempts int
	// RetryBackoff is the wall-clock pause before each failover attempt,
	// doubling per attempt. Defaults to 1 ms; negative disables backoff.
	RetryBackoff time.Duration
	// ProbeInterval is how often the recovery prober re-tests
	// quarantined devices with a one-sample probe (re-admitting them on
	// success). Defaults to 50 ms; negative disables the prober —
	// Scheduler.ProbeQuarantined can still be called manually.
	ProbeInterval time.Duration
	// DefaultSLO is the latency budget applied to requests that carry no
	// Deadline of their own (measured from admission on the pipeline
	// clock). Zero disables the default: such requests have no SLO.
	DefaultSLO time.Duration
	// ModelSLO overrides DefaultSLO per model name.
	ModelSLO map[string]time.Duration
	// DisableAdmissionControl turns off predicted-miss rejection: every
	// SLO-carrying request is admitted regardless of feasibility and
	// only culled once its deadline actually passes. Default off
	// (admission control active).
	DisableAdmissionControl bool
}

// admitShards is the number of parallel admission/batching loops:
// GOMAXPROCS capped at 8, rounded up to a power of two so shard
// selection is a mask, not a mod. Aggregation keys (model, policy,
// estimate-vs-classify) hash to a shard, so requests for one key always
// meet the same batcher while distinct models admit and flush
// concurrently.
func admitShards() int {
	n := min(runtime.GOMAXPROCS(0), 8)
	for n&(n-1) != 0 {
		n++
	}
	return n
}

func (c *PipelineConfig) fillDefaults() {
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DeviceQueueDepth <= 0 {
		c.DeviceQueueDepth = 8
	}
	if c.Clock == nil {
		//bomw:wallclock the default serving clock IS the wall clock, anchored at pipeline creation; simulated callers inject their own Clock
		start := time.Now()
		//bomw:wallclock see above: wall time since creation is the default virtual-time mapping
		c.Clock = func() time.Duration { return time.Since(start) }
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = time.Millisecond
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 50 * time.Millisecond
	}
}

// Sentinel errors of the admission layer.
var (
	// ErrAdmissionFull is returned by Submit when the bounded admission
	// queue is at capacity — the load-shedding backpressure signal
	// (HTTP servers translate it to 503).
	ErrAdmissionFull = errors.New("core: pipeline admission queue full")
	// ErrPipelineClosed is returned by Submit after Close.
	ErrPipelineClosed = errors.New("core: pipeline closed")
	// ErrDeadlineInfeasible is returned by Submit when admission control
	// predicts that no device can complete the request within its SLO
	// given current queue state — the request is rejected before it
	// queues (HTTP servers translate it to 504 deadline_infeasible).
	ErrDeadlineInfeasible = errors.New("core: deadline infeasible at admission")
	// ErrDeadlineExceeded resolves the future of an admitted request
	// whose SLO expired before (or while) it could be executed; the
	// request is culled without spending device time.
	ErrDeadlineExceeded = errors.New("core: request deadline exceeded")
)

// PipelineRequest is one classification job entering the pipeline.
type PipelineRequest struct {
	Model  string
	Policy Policy
	// Input carries real samples (batch on dim 0). When nil the request
	// is timing-only and Batch gives the sample count — the Estimate
	// fast path replays and benchmarks use.
	Input *tensor.Tensor
	Batch int
	// Deadline is the request's latency SLO, measured from admission on
	// the pipeline clock. Zero falls back to the pipeline's per-model /
	// default SLO (PipelineConfig.ModelSLO / DefaultSLO); negative
	// explicitly opts out of any SLO.
	Deadline time.Duration
}

// Completion is the resolved outcome of one pipelined request.
type Completion struct {
	// Decision is the batch-level scheduling choice that served this
	// request (shared by every request aggregated into the batch).
	Decision Decision
	// Classes holds this request's labels (nil for timing-only
	// requests) — the request's slice of the aggregated batch output.
	Classes []int
	// BatchSize is the total sample count of the aggregated batch.
	BatchSize int
	// Wait is the aggregation delay this request paid before dispatch.
	Wait time.Duration
	// Latency is arrival → completion, including aggregation wait,
	// device queueing and execution, in virtual time.
	Latency time.Duration
	// Completed is the virtual completion timestamp.
	Completed time.Duration
	// EnergyJ is this request's proportional share of the batch energy.
	EnergyJ float64
	// Err is non-nil when the request failed (cancelled, expired,
	// execution error); all other fields may be zero then.
	Err error
}

// Future resolves to a Completion exactly once.
//
// Futures are pooled. The pool-safety invariant: a future returns to the
// pool only through the caller that consumed its completion
// (waitRelease), so a resolved future is never recycled while any waiter
// still selects on it — an abandoned Wait (context cancelled) pins its
// future out of the pool forever rather than risk handing the next
// request's completion to a stale waiter. The generation counter makes
// an (erroneous) second release of the same handle a no-op instead of a
// double-free.
type Future struct {
	ch  chan Completion
	gen atomic.Uint64

	// detached marks a future created by NewDetachedFuture: it is
	// resolved through Resolve (cluster-tier arbitration over racing node
	// submissions) instead of the pipeline's finish path, and it never
	// enters the pool — its resolved flag would otherwise leak into a
	// recycled pipeline future.
	detached bool
	resolved atomic.Bool
}

// NewDetachedFuture returns an unpooled future the caller resolves via
// Resolve. The cluster tier's hedging and migration paths use it to
// present one future over several racing node submissions: whichever
// underlying completion arrives first is Resolve()d into it, and the
// caller waits on it exactly like a pipeline future.
func NewDetachedFuture() *Future {
	return &Future{ch: make(chan Completion, 1), detached: true}
}

// Resolve delivers c to a detached future exactly once, reporting
// whether this call won the resolution (losers' completions are
// discarded — the cluster's first-result-wins arbitration). Calling
// Resolve on a pipeline-issued future is a programming error; it
// panics to surface the misuse instead of corrupting delivery.
func (f *Future) Resolve(c Completion) bool {
	if !f.detached {
		panic("core: Resolve on a pipeline-owned future")
	}
	if !f.resolved.CompareAndSwap(false, true) {
		return false
	}
	f.ch <- c // buffered(1); the CAS above makes delivery exactly-once
	return true
}

// Resolved reports whether a detached future has been resolved. Only
// meaningful for detached futures — pipeline futures resolve through
// their pipeReq's done flag, which this does not observe.
func (f *Future) Resolved() bool { return f.resolved.Load() }

var futurePool = sync.Pool{New: func() any { return &Future{ch: make(chan Completion, 1)} }}

func getFuture() *Future { return futurePool.Get().(*Future) }

// waitRelease waits like Wait and, on a successful receive, returns the
// future to the pool. Callers must be the future's sole consumer and
// must not touch f afterwards — this is the internal fast path behind
// Do, Node.Do and Play. A ctx abort leaves the future un-pooled: a
// resolution may still be in flight, and the caller may legitimately
// Wait again.
func (f *Future) waitRelease(ctx context.Context) (Completion, error) {
	gen := f.gen.Load()
	if ctx.Done() == nil {
		// Background-ish context: nothing to race the completion
		// against, so skip selectgo for a plain channel receive. This is
		// the hot closed-loop serving path.
		c := <-f.ch
		if !f.detached && f.gen.CompareAndSwap(gen, gen+1) {
			futurePool.Put(f)
		}
		return c, nil
	}
	select {
	case c := <-f.ch:
		// Sole-consumer contract holds and the buffered slot is empty:
		// the future can serve the next request. The CAS loses only if
		// another (buggy) release of this generation beat us — then the
		// pool already owns f and putting it again would double-issue it.
		// Detached futures never enter the pool (their resolved flag
		// would leak into a recycled pipeline future).
		if !f.detached && f.gen.CompareAndSwap(gen, gen+1) {
			futurePool.Put(f)
		}
		return c, nil
	case <-ctx.Done():
		return Completion{}, ctx.Err()
	}
}

// Wait blocks until the request completes or ctx is done. A ctx error
// abandons the wait but does not recall work already queued — the
// pipeline culls the request at the next stage boundary and resolves
// the future with the context error; a Wait with a fresh context still
// observes that completion (delivery is never lost to an abandoned
// wait). A future consumed through Wait is never recycled, so holding
// or re-Waiting it stays safe indefinitely.
func (f *Future) Wait(ctx context.Context) (Completion, error) {
	if ctx.Done() == nil {
		return <-f.ch, nil
	}
	select {
	case c := <-f.ch:
		return c, nil
	case <-ctx.Done():
		return Completion{}, ctx.Err()
	}
}

// PipelineStats snapshots pipeline activity.
//
// Accounting identities (after Close has drained the pipeline):
//
//	submit attempts = Submitted + Shed + Infeasible (+ validation errors)
//	Submitted = Completed = ok + Failed + Cancelled + Expired
//
// where ok is Completed minus the three error buckets — every admitted
// request resolves into exactly one of the four outcomes.
type PipelineStats struct {
	Submitted  int64 // requests accepted into admission
	Shed       int64 // requests rejected with ErrAdmissionFull
	Infeasible int64 // requests rejected with ErrDeadlineInfeasible (admission control)
	Cancelled  int64 // admitted requests culled: context ended before execution
	Expired    int64 // admitted requests culled: deadline passed before execution
	Failed     int64 // admitted requests resolved with an execution error
	Completed  int64 // futures resolved (including failures and culls)

	Batches       int64 // aggregated batches dispatched
	SizeFlushes   int64 // flushed by the MaxBatch trigger
	WindowFlushes int64 // flushed by the Window timer
	IdleFlushes   int64 // flushed by the work-conserving idle fast-path
	DrainFlushes  int64 // flushed during Close

	Retries      int64 // failover re-executions after a device error
	Failovers    int64 // batches completed on a device other than the one that failed them
	ExecFailures int64 // batches that exhausted every attempt and failed their requests

	// HedgesLaunched and HedgesWon are always zero: the pipeline does
	// not hedge, and node hedges are counted in
	// cluster.FleetStats.NodeHedges/NodeHedgesWon. The fields remain
	// only because perfbench/accounting.go reads them.
	HedgesLaunched int64
	HedgesWon      int64

	InFlight int64          // batches queued or executing now
	Depth    map[string]int // per-device batches queued or executing
}

// pipeReq is one admitted request moving through the stages.
//
// pipeReqs are pooled. The flow path (aggregate → batch → worker) is
// the only holder from Submit on, and every release site runs after the
// request's future was resolved (finish) — so a pooled pipeReq is never
// resurrected under a stage that still reads it. The Future is NOT reset
// with the pipeReq: it detaches at release and is recycled separately by
// whoever consumes the completion.
type pipeReq struct {
	//bomw:ctxparam pipeReq is the per-request carrier: stages observe this request's cancellation at every queue boundary, so the ctx travels with it
	ctx      context.Context
	req      PipelineRequest
	key      aggKey        // aggregation key, computed once at Submit
	at       time.Duration // virtual arrival
	deadline time.Duration // absolute SLO expiry on the pipeline clock; 0 = none
	size     int
	fut      *Future
	done     atomic.Bool // future resolved (guards exactly-once delivery)
}

var reqPool = sync.Pool{New: func() any { return &pipeReq{} }}

func getPipeReq() *pipeReq {
	r := reqPool.Get().(*pipeReq)
	r.done.Store(false)
	return r
}

// releaseReq clears the request and returns it to the pool. Callers
// must have finished the request's future before releasing.
func (p *Pipeline) releaseReq(r *pipeReq) {
	r.ctx = nil
	r.req = PipelineRequest{}
	r.key = aggKey{}
	r.at, r.deadline, r.size = 0, 0, 0
	r.fut = nil
	reqPool.Put(r)
}

// dead reports whether the request must be culled at virtual time now
// and with which error: context cancellation wins over SLO expiry.
func (r *pipeReq) dead(now time.Duration) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if r.deadline > 0 && now > r.deadline {
		return ErrDeadlineExceeded
	}
	return nil
}

// aggKey identifies one live aggregate. Timing-only and real requests
// never mix: their execution paths differ.
type aggKey struct {
	model    string
	pol      Policy
	estimate bool
}

type aggregate struct {
	gen        uint64
	reqs       []*pipeReq
	size       int
	firstAt    time.Duration
	timerArmed bool
	wt         *windowTimer // reusable window timer; survives pool cycles
}

// windowTimer is a reusable window-flush timer. The fields below t are
// rewritten by the owning shard goroutine only while the timer is
// provably disarmed (freshly allocated, or Stop returned true), so the
// fire callback — synchronised with the arming Reset by the runtime
// timer machinery — always reads the values of its own arming. A timer
// whose Stop returns false has a callback in flight reading the old
// values; it is abandoned (the callback's flush message goes stale via
// the generation check) and the aggregate allocates a fresh one.
type windowTimer struct {
	t   *time.Timer
	p   *Pipeline
	sh  *admitShard
	key aggKey
	gen uint64
}

func (wt *windowTimer) fire() {
	select {
	case wt.sh.flushCh <- flushMsg{key: wt.key, gen: wt.gen}:
	case <-wt.p.done:
	}
}

type flushMsg struct {
	key aggKey
	gen uint64
}

// admitShard is one independent admission/batching loop. All state below
// the channels is loop-local: only this shard's goroutine touches it.
type admitShard struct {
	admit   chan *pipeReq
	flushCh chan flushMsg
	nudge   chan struct{} // worker → shard: system went idle

	aggs map[aggKey]*aggregate
	gen  uint64

	// openAggs mirrors len(aggs) for readers outside the shard goroutine
	// (batchDone's nudge filter). Best-effort: a stale read costs at most
	// one skipped opportunistic nudge, never a stuck aggregate.
	openAggs atomic.Int32
}

// shardFor hashes an aggregation key to its shard (FNV-1a over the model
// name, mixed with policy and path). Same key → same shard, always: the
// per-key batching semantics are those of a single admit loop.
func (p *Pipeline) shardFor(key aggKey) *admitShard {
	h := uint32(2166136261)
	for i := 0; i < len(key.model); i++ {
		h = (h ^ uint32(key.model[i])) * 16777619
	}
	h ^= uint32(key.pol) * 0x9e3779b1
	if key.estimate {
		h ^= 0x85ebca6b
	}
	return p.shards[h&p.shardMask]
}

// batchWork is one flushed batch travelling to a device worker.
type batchWork struct {
	key       aggKey
	reqs      []*pipeReq
	size      int
	flushAt   time.Duration
	dec       Decision
	charge    time.Duration // virtual occupancy charged to the device queue
	clkCharge time.Duration // clock occupancy charged to the device queue
}

// Pools for the per-batch carriers. Both keep their []*pipeReq backing
// across reuse — the flush path copy-culls the aggregate's requests into
// the batchWork's own backing, so steady-state batching allocates
// neither carriers nor slices.
var (
	aggPool = sync.Pool{New: func() any { return &aggregate{} }}
	bwPool  = sync.Pool{New: func() any { return &batchWork{} }}
)

func getAggregate(gen uint64, firstAt time.Duration) *aggregate {
	a := aggPool.Get().(*aggregate)
	a.gen, a.firstAt, a.size, a.timerArmed = gen, firstAt, 0, false
	a.reqs = a.reqs[:0] // backing retained from the previous cycle
	return a
}

func putAggregate(a *aggregate) {
	clearReqs(a.reqs)
	a.reqs = a.reqs[:0]
	aggPool.Put(a)
}

// clearReqs drops the pipeReq aliases so a pooled backing array never
// pins (or worse, resurrects) requests from a previous cycle.
func clearReqs(s []*pipeReq) {
	for i := range s {
		s[i] = nil
	}
}

func getBatchWork() *batchWork {
	w := bwPool.Get().(*batchWork)
	reqs := w.reqs[:0] // keep the recycled backing
	*w = batchWork{}
	w.reqs = reqs
	return w
}

// retireBatchWork recycles a finished batch.
func retireBatchWork(w *batchWork) {
	clearReqs(w.reqs)
	w.reqs = w.reqs[:0]
	bwPool.Put(w)
}

// deviceQueue tracks one device worker's occupancy in two currencies:
// queued *virtual* work (EWMA of the simulator's per-sample latency —
// what the scheduler's spill logic understands) and queued *clock* work
// (EWMA of elapsed pipeline-clock time per sample, which also sees wall
// stalls the simulator cannot: a wedged worker, host contention). The
// probe reports the larger of the two, so both spilling and deadline
// admission read the worst honest estimate.
type deviceQueue struct {
	name string
	ch   chan *batchWork

	mu           sync.Mutex
	pending      time.Duration // estimated queued virtual work
	perSample    time.Duration // EWMA virtual latency per sample
	clkPending   time.Duration // estimated queued clock work
	clkPerSample time.Duration // EWMA clock latency per sample
	depth        int           // batches queued or executing
}

// chargeBatch books the estimated virtual and clock work of a batch of
// n samples.
func (dq *deviceQueue) chargeBatch(n int) (virt, clk time.Duration) {
	dq.mu.Lock()
	defer dq.mu.Unlock()
	virt = dq.perSample * time.Duration(n)
	clk = dq.clkPerSample * time.Duration(n)
	dq.pending += virt
	dq.clkPending += clk
	dq.depth++
	return virt, clk
}

// completeBatch releases the charges and folds the observed latencies
// into the per-sample estimates.
func (dq *deviceQueue) completeBatch(virtCharge, clkCharge, obsVirt, obsClk time.Duration, n int) {
	dq.mu.Lock()
	defer dq.mu.Unlock()
	dq.pending -= virtCharge
	if dq.pending < 0 {
		dq.pending = 0
	}
	dq.clkPending -= clkCharge
	if dq.clkPending < 0 {
		dq.clkPending = 0
	}
	dq.depth--
	if n > 0 {
		if obsVirt > 0 {
			per := obsVirt / time.Duration(n)
			if dq.perSample == 0 {
				dq.perSample = per
			} else {
				dq.perSample = (7*dq.perSample + per) / 8
			}
		}
		if obsClk > 0 {
			per := obsClk / time.Duration(n)
			if dq.clkPerSample == 0 {
				dq.clkPerSample = per
			} else {
				dq.clkPerSample = (7*dq.clkPerSample + per) / 8
			}
		}
	}
}

func (dq *deviceQueue) occupancy() time.Duration {
	dq.mu.Lock()
	defer dq.mu.Unlock()
	if dq.clkPending > dq.pending {
		return dq.clkPending
	}
	return dq.pending
}

func (dq *deviceQueue) queued() int {
	dq.mu.Lock()
	defer dq.mu.Unlock()
	return dq.depth
}

// NewPipeline builds and starts the serving pipeline over a scheduler:
// admitShards() admit/batching goroutines plus one worker per device. The
// pipeline registers its queue occupancy with the scheduler so spill
// decisions (Config.MaxQueueDelay) observe real queued work; only one
// pipeline should serve a scheduler at a time. Call Close to drain and
// stop.
func NewPipeline(sched *Scheduler, cfg PipelineConfig) *Pipeline {
	cfg.fillDefaults()
	p := &Pipeline{
		sched:   sched,
		cfg:     cfg,
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
		queues:  map[string]*deviceQueue{},
	}
	p.windowNow.Store(int64(cfg.Window))
	shards := admitShards()
	perShard := max(cfg.QueueDepth/shards, 1)
	p.capacity = int64(perShard * shards)
	p.shards = make([]*admitShard, shards)
	p.shardMask = uint32(shards - 1)
	for i := range p.shards {
		p.shards[i] = &admitShard{
			admit:   make(chan *pipeReq, perShard),
			flushCh: make(chan flushMsg),
			nudge:   make(chan struct{}, 1),
			aggs:    map[aggKey]*aggregate{},
		}
	}
	for _, name := range sched.Devices() {
		dq := &deviceQueue{name: name, ch: make(chan *batchWork, cfg.DeviceQueueDepth)}
		p.queues[name] = dq
		// Each device contributes its queue slots plus the one executing
		// batch to the occupancy Load can legitimately report.
		p.capacity += int64(cfg.DeviceQueueDepth + 1)
	}
	sched.SetQueueProbe(p.probeQueue)
	for _, dq := range p.queues {
		p.workers.Add(1)
		go p.worker(dq)
	}
	if cfg.ProbeInterval > 0 {
		p.workers.Add(1)
		go p.prober()
	}
	for _, sh := range p.shards {
		p.shardWG.Add(1)
		go p.shardLoop(sh)
	}
	return p
}

// prober periodically re-tests quarantined devices so recovered hardware
// rejoins the schedulable set without operator action.
func (p *Pipeline) prober() {
	defer p.workers.Done()
	//bomw:wallclock recovery probing is a live serving activity: quarantined hardware is re-tested on real time, not simulated time
	tick := time.NewTicker(p.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			p.sched.ProbeQuarantined(p.cfg.Clock())
		case <-p.closing:
			return
		}
	}
}

// probeQueue reports the estimated delay queued ahead of new work on a
// device — the scheduler adds it to the device's committed busy horizon
// when deciding whether to spill, and the deadline predictor
// (FeasibleWithin / SelectWithDeadline) folds it into completion
// estimates.
func (p *Pipeline) probeQueue(device string) time.Duration {
	if dq := p.queues[device]; dq != nil {
		return dq.occupancy()
	}
	return 0
}

// slo resolves the effective SLO of a request: its own Deadline, else
// the per-model default, else the pipeline default; negative opts out.
func (p *Pipeline) slo(req PipelineRequest) time.Duration {
	d := req.Deadline
	if d == 0 {
		if m, ok := p.cfg.ModelSLO[req.Model]; ok {
			d = m
		} else {
			d = p.cfg.DefaultSLO
		}
	}
	if d < 0 {
		return 0
	}
	return d
}

// Submit admits one request. It never blocks: a full admission queue
// sheds the request with ErrAdmissionFull, a request predicted to miss
// its SLO is rejected with ErrDeadlineInfeasible, a closed pipeline
// returns ErrPipelineClosed, and validation failures (including an
// already-cancelled context) surface immediately. On success the
// returned future resolves exactly once.
func (p *Pipeline) Submit(ctx context.Context, req PipelineRequest) (*Future, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		// Admitting already-dead work would spend queue slots and
		// potentially device time on a request nobody is waiting for.
		return nil, err
	}
	size := req.Batch
	if req.Input != nil {
		if req.Input.Rank() < 1 || req.Input.Dim(0) <= 0 {
			return nil, fmt.Errorf("core: pipeline input needs a positive batch dimension")
		}
		size = req.Input.Dim(0)
	}
	if size <= 0 {
		return nil, fmt.Errorf("core: batch size must be positive, got %d", size)
	}
	spec, err := p.sched.disp.Spec(req.Model)
	if err != nil {
		return nil, err
	}
	if !p.sched.hasPolicy(req.Policy) {
		return nil, fmt.Errorf("core: unknown policy %v", req.Policy)
	}
	if req.Input != nil {
		per := 1
		for _, d := range spec.InputShape {
			per *= d
		}
		if req.Input.Len() != size*per {
			return nil, fmt.Errorf("core: %s expects %d values per sample, input carries %d for batch %d",
				req.Model, per, req.Input.Len(), size)
		}
	}
	slo := p.slo(req)
	if slo > 0 && !p.cfg.DisableAdmissionControl {
		feasible, predicted, ferr := p.sched.FeasibleWithin(req.Model, size, slo, p.cfg.Clock())
		if ferr != nil {
			return nil, ferr
		}
		if !feasible {
			p.infeasible.Add(1)
			return nil, fmt.Errorf("%w: %s batch %d predicted %v against SLO %v",
				ErrDeadlineInfeasible, req.Model, size, predicted, slo)
		}
	}

	r := getPipeReq()
	r.ctx, r.req, r.size = ctx, req, size
	r.key = aggKey{model: req.Model, pol: req.Policy, estimate: req.Input == nil}
	r.fut = getFuture()
	sh := p.shardFor(r.key)
	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		recycleUnissued(r.fut)
		p.releaseReq(r)
		return nil, ErrPipelineClosed
	}
	if slo > 0 {
		r.at = p.cfg.Clock()
		r.deadline = r.at + slo
	} else {
		// No deadline math needs the arrival time here: defer the stamp
		// to the shard's burst drain, where one clock read covers every
		// request in the burst instead of one read per Submit.
		r.at = -1
	}
	fut := r.fut // capture before the hand-off: r may be recycled the instant the shard owns it
	select {
	case sh.admit <- r:
		p.submitted.Add(1)
		p.closeMu.RUnlock()
		return fut, nil
	default:
		p.shed.Add(1)
		p.closeMu.RUnlock()
		recycleUnissued(fut)
		p.releaseReq(r)
		return nil, ErrAdmissionFull
	}
}

// recycleUnissued returns a future that was never handed to a caller
// (Submit failed before issuing it): its buffered slot is empty and
// nobody can be waiting, so it goes straight back to the pool.
func recycleUnissued(f *Future) {
	gen := f.gen.Load()
	if f.gen.CompareAndSwap(gen, gen+1) {
		futurePool.Put(f)
	}
}

// Do submits a request and waits for its completion — the synchronous
// convenience the HTTP handlers and benchmarks use.
func (p *Pipeline) Do(ctx context.Context, req PipelineRequest) (Completion, error) {
	fut, err := p.Submit(ctx, req)
	if err != nil {
		return Completion{}, err
	}
	return fut.waitRelease(ctx)
}

// Close stops admission, flushes every open aggregate, drains the
// device queues and waits for all in-flight work to complete. Every
// accepted request's future resolves before Close returns. Close is
// idempotent.
func (p *Pipeline) Close() {
	p.closeMu.Lock()
	if p.closed {
		p.closeMu.Unlock()
		<-p.drained
		return
	}
	p.closed = true
	p.closeMu.Unlock()
	// No Submit can be mid-send past this point (sends happen under the
	// read lock), so once the shards observe closing and self-drain,
	// admission is empty for good.
	close(p.closing)
	p.shardWG.Wait()
	for _, dq := range p.queues {
		close(dq.ch)
	}
	// Wait for the workers to finish every queued batch (and the prober
	// to exit) before reporting the pipeline drained: the Close contract
	// is that every accepted request's future has resolved. Workers still
	// signal idleness on the buffered nudge channels; nothing reads them
	// anymore, which is fine — sends are non-blocking.
	p.workers.Wait()
	close(p.done) // release pending window timers
	close(p.drained)
	p.sched.SetQueueProbe(nil)
}

// Load is the pipeline's instantaneous occupancy — requests waiting in
// admission plus batches queued or executing — as a single cheap signal.
// The cluster tier's least-loaded router reads it on every routing
// decision, so it deliberately avoids the locks and map allocation of
// Stats.
func (p *Pipeline) Load() int64 {
	n := p.inflight.Load()
	for _, sh := range p.shards {
		n += int64(len(sh.admit))
	}
	return n
}

// Capacity is the pipeline's occupancy budget: admission slots plus
// device queue slots plus one executing batch per device — the
// denominator that turns Load into the occupancy ratio the fleet
// brownout controller thresholds on.
func (p *Pipeline) Capacity() int64 { return p.capacity }

// AvgLatency is the EWMA of delivered-batch completion latency (oldest
// arrival → completion, virtual time). It is the cluster tier's
// per-node straggler signal: a node whose EWMA is a fleet-p99 outlier
// goes on probation. Zero until the first batch delivers.
func (p *Pipeline) AvgLatency() time.Duration {
	return time.Duration(p.latEWMA.Load())
}

// SetWindowScale rescales the live batching window to scale×cfg.Window,
// clamped to [1, 8]. The brownout controller widens the window under
// fleet overload (bigger batches, better device efficiency, worse
// latency) and restores it on recovery. Aggregates already armed keep
// their old window; new arrivals see the new one.
func (p *Pipeline) SetWindowScale(scale float64) {
	if scale < 1 {
		scale = 1
	} else if scale > 8 {
		scale = 8
	}
	p.windowNow.Store(int64(float64(p.cfg.Window) * scale))
}

// window is the live batching window (cfg.Window × the current scale).
func (p *Pipeline) window() time.Duration {
	return time.Duration(p.windowNow.Load())
}

// QueueDelay estimates the delay new work would observe behind already
// queued batches — the worst per-device occupancy estimate (virtual or
// clock EWMA, whichever is larger). Servers derive the Retry-After hint
// of admission-shed responses from it, so clients back off proportional
// to the actual backlog instead of a fixed guess.
func (p *Pipeline) QueueDelay() time.Duration {
	var worst time.Duration
	for _, dq := range p.queues {
		if o := dq.occupancy(); o > worst {
			worst = o
		}
	}
	return worst
}

// Stats snapshots pipeline activity.
func (p *Pipeline) Stats() PipelineStats {
	st := PipelineStats{
		Submitted:     p.submitted.Load(),
		Shed:          p.shed.Load(),
		Infeasible:    p.infeasible.Load(),
		Cancelled:     p.cancelled.Load(),
		Expired:       p.expired.Load(),
		Failed:        p.failed.Load(),
		Completed:     p.completed.Load(),
		Batches:       p.batches.Load(),
		SizeFlushes:   p.sizeFl.Load(),
		WindowFlushes: p.windowFl.Load(),
		IdleFlushes:   p.idleFl.Load(),
		DrainFlushes:  p.drainFl.Load(),
		Retries:       p.retries.Load(),
		Failovers:     p.failovers.Load(),
		ExecFailures:  p.execFails.Load(),
		InFlight:      p.inflight.Load(),
		Depth:         map[string]int{},
	}
	for name, dq := range p.queues {
		st.Depth[name] = dq.queued()
	}
	return st
}

// ---- stage 2: the sharded admit/batching loops -------------------------

func (p *Pipeline) shardLoop(sh *admitShard) {
	defer p.shardWG.Done()
	for {
		select {
		case r := <-sh.admit:
			// Greedy burst drain: one clock read covers every request
			// already queued behind this one — under load the shard pays
			// one Clock() per wake-up instead of one per request.
			now := p.cfg.Clock()
			p.ingest(sh, r, now)
			sh.drainAdmit(p, now)
			if len(sh.aggs) != 0 && !p.cfg.HoldWindow && p.idle() {
				// The system looks drained, but "idle" here often means
				// the shard outran a wave of clients that are runnable
				// and about to submit (on few cores, the admission send
				// readies this shard ahead of them). Yield once so their
				// requests land, then re-drain — the difference between
				// dispatching a splintered batch and a full one.
				runtime.Gosched()
				sh.drainAdmit(p, now)
			}
			p.idleSweep(sh, now)
			if len(sh.aggs) != 0 {
				p.armTimers(sh)
			}
		case m := <-sh.flushCh:
			if p.flushKey(sh, m.key, m.gen, p.cfg.Clock()) {
				p.windowFl.Add(1)
			}
		case <-sh.nudge:
			// A worker drained the system: dispatch whatever aggregated
			// while it was busy instead of waiting out the window.
			p.idleSweep(sh, p.cfg.Clock())
		case <-p.closing:
			p.drainShard(sh)
			return
		}
	}
}

// drainAdmit greedily ingests everything already queued on the shard's
// admission channel.
func (sh *admitShard) drainAdmit(p *Pipeline, now time.Duration) {
	for {
		select {
		case r := <-sh.admit:
			p.ingest(sh, r, now)
		default:
			return
		}
	}
}

// idleSweep is the work-conserving flush: once nothing is in flight and
// nothing is queued, every open aggregate dispatches immediately instead
// of waiting out its window.
func (p *Pipeline) idleSweep(sh *admitShard, now time.Duration) {
	if len(sh.aggs) == 0 || p.cfg.HoldWindow || !p.idle() {
		return
	}
	for key, agg := range sh.aggs {
		if p.flushKey(sh, key, agg.gen, now) {
			p.idleFl.Add(1)
		}
	}
}

// drainShard empties this shard's admission queue and flushes its open
// aggregates. By the time closing is observable, Submit can no longer
// send (Close flipped closed under the write lock first), so one
// non-blocking sweep drains admission for good.
func (p *Pipeline) drainShard(sh *admitShard) {
	for {
		select {
		case r := <-sh.admit:
			p.ingest(sh, r, p.cfg.Clock())
			continue
		default:
		}
		break
	}
	now := p.cfg.Clock()
	for key, agg := range sh.aggs {
		if p.flushKey(sh, key, agg.gen, now) {
			p.drainFl.Add(1)
		}
	}
}

func (p *Pipeline) idle() bool {
	if p.inflight.Load() != 0 {
		return false
	}
	for _, sh := range p.shards {
		if len(sh.admit) != 0 {
			return false
		}
	}
	return true
}

func (p *Pipeline) ingest(sh *admitShard, r *pipeReq, now time.Duration) {
	if r.at < 0 {
		r.at = now // deferred arrival stamp (no-SLO fast path in Submit)
	}
	if err := r.dead(now); err != nil {
		p.finish(r, &Completion{Err: err})
		p.releaseReq(r)
		return
	}
	key := r.key
	agg := sh.aggs[key]
	if agg == nil {
		sh.gen++
		agg = getAggregate(sh.gen, r.at)
		sh.aggs[key] = agg
		sh.openAggs.Add(1)
	}
	agg.reqs = append(agg.reqs, r)
	agg.size += r.size
	if agg.size >= p.cfg.MaxBatch {
		// The size trigger fires inline; the work-conserving idle flush
		// runs as a post-drain sweep (idleSweep) so a burst is judged
		// whole, not per request.
		if p.flushKey(sh, key, agg.gen, now) {
			p.sizeFl.Add(1)
		}
	}
}

// armTimers arms the window timer of every aggregate still open after a
// burst drain. Arming happens here, not per ingest: an aggregate that
// forms and flushes within one burst (the common closed-loop rhythm)
// never touches a timer at all, and the ones that do survive arm exactly
// once. Armed timers are cancelled on flush and reused across pool
// cycles, so steady-state batching neither allocates timers nor lets
// stale ones fire through the runtime timer wheel.
func (p *Pipeline) armTimers(sh *admitShard) {
	for key, agg := range sh.aggs {
		if agg.timerArmed {
			continue
		}
		agg.timerArmed = true
		if wt := agg.wt; wt != nil {
			wt.p, wt.sh, wt.key, wt.gen = p, sh, key, agg.gen
			wt.t.Reset(p.window())
		} else {
			wt = &windowTimer{p: p, sh: sh, key: key, gen: agg.gen}
			agg.wt = wt
			//bomw:wallclock live batching flushes on real elapsed time — the Window SLO is a wall-clock bound on aggregation delay
			wt.t = time.AfterFunc(p.window(), wt.fire)
		}
	}
}

// cullLive filters reqs down to the ones still worth executing at
// virtual time now, resolving dead ones (context ended, deadline
// passed) with their error and releasing them. The returned slice
// reuses reqs' backing array.
func (p *Pipeline) cullLive(reqs []*pipeReq, now time.Duration) ([]*pipeReq, int) {
	live := reqs[:0]
	size := 0
	for _, r := range reqs {
		if err := r.dead(now); err != nil {
			p.finish(r, &Completion{Err: err})
			p.releaseReq(r)
			continue
		}
		live = append(live, r)
		size += r.size
	}
	return live, size
}

// flushKey dispatches the aggregate identified by (key, gen) on shard
// sh. Stale generations (already flushed, slot reused) are ignored.
// Reports whether a batch was actually dispatched.
func (p *Pipeline) flushKey(sh *admitShard, key aggKey, gen uint64, now time.Duration) bool {
	agg := sh.aggs[key]
	if agg == nil || agg.gen != gen {
		return false
	}
	delete(sh.aggs, key)
	sh.openAggs.Add(-1)
	if agg.timerArmed {
		// Cancel the pending window timer so it neither fires a stale
		// flush nor churns the runtime timer wheel. Stop failing means
		// the fire callback is already in flight with this arming's
		// values — abandon the timer (the callback's message goes stale
		// the moment the map entry above is gone) and let the next cycle
		// allocate a fresh one.
		if !agg.wt.t.Stop() {
			agg.wt = nil
		}
		agg.timerArmed = false
	}

	// Copy-cull the aggregate's requests into the batch carrier's own
	// backing — requests that died while aggregating resolve here,
	// before any device time — then recycle the aggregate immediately.
	w := getBatchWork()
	size := 0
	for _, r := range agg.reqs {
		if err := r.dead(now); err != nil {
			p.finish(r, &Completion{Err: err})
			p.releaseReq(r)
			continue
		}
		w.reqs = append(w.reqs, r)
		size += r.size
	}
	putAggregate(agg)
	live := w.reqs
	if len(live) == 0 {
		retireBatchWork(w)
		return false
	}

	// The tightest SLO in the batch drives the device pick: a
	// deadline-carrying batch routes through SelectWithDeadline so the
	// choice honours the SLO; unconstrained batches take the memoised
	// classifier fast path (same decision as Select, minus the feature
	// extraction and forest walk on repeat (model, bucket) keys).
	var minDL time.Duration
	for _, r := range live {
		if r.deadline > 0 && (minDL == 0 || r.deadline < minDL) {
			minDL = r.deadline
		}
	}
	var dec Decision
	var err error
	if minDL > 0 {
		slack := minDL - now
		if slack <= 0 {
			slack = time.Nanosecond // culled above, so only a clock-edge race lands here
		}
		var dd DeadlineDecision
		dd, err = p.sched.SelectWithDeadline(key.model, size, slack, now)
		dec = dd.Decision
		dec.Policy = key.pol
	} else {
		dec, err = p.sched.SelectCached(key.model, size, key.pol, now)
	}
	if err != nil {
		for _, r := range live {
			p.finish(r, &Completion{Err: err})
			p.releaseReq(r)
		}
		retireBatchWork(w)
		return false
	}
	dq := p.queues[dec.Device]
	if dq == nil { // defensive: scheduler named an unknown device
		err := fmt.Errorf("core: pipeline has no queue for device %q", dec.Device)
		for _, r := range live {
			p.finish(r, &Completion{Decision: dec, Err: err})
			p.releaseReq(r)
		}
		retireBatchWork(w)
		return false
	}
	w.key, w.size, w.flushAt, w.dec = key, size, now, dec
	w.charge, w.clkCharge = dq.chargeBatch(size)
	p.inflight.Add(1)
	p.batches.Add(1)
	// A full device queue blocks here: backpressure propagates through
	// the shard's admit loop into its bounded admission queue, which
	// sheds.
	dq.ch <- w
	return true
}

// ---- stage 3: per-device workers ---------------------------------------

func (p *Pipeline) worker(dq *deviceQueue) {
	defer p.workers.Done()
	for work := range dq.ch {
		p.runBatch(dq, work)
	}
}

// batchDone retires one in-flight batch, waking the batchers when the
// system went idle.
func (p *Pipeline) batchDone() {
	if p.inflight.Add(-1) == 0 {
		// Wake every shard: nothing left to amortise against, and any of
		// them may be sitting on an open aggregate. The nudge is sent
		// even to shards with nothing open — pre-readying the shard here
		// keeps the next admission send from goready-ing it into the
		// scheduler's run-next slot ahead of the other just-completed
		// clients, which would drain a one-request burst and collapse
		// batching into a serialized request-per-batch regime.
		for _, sh := range p.shards {
			select {
			case sh.nudge <- struct{}{}:
			default:
			}
		}
	}
}

// executeAttempt runs one batch attempt on the device dec names,
// releasing the attempt's queue charges (dq may be nil when the failover
// device has no queue) and folding the observed virtual and clock
// latencies into the queue's per-sample estimates.
func (p *Pipeline) executeAttempt(dq *deviceQueue, key aggKey, reqs []*pipeReq, size int, dec Decision, virtCharge, clkCharge, clkStart time.Duration) (*opencl.Result, error) {
	now := p.cfg.Clock()
	var res *opencl.Result
	var err error
	if key.estimate {
		res, err = p.sched.rt.Estimate(dec.Device, key.model, size, now)
	} else {
		res, err = p.sched.rt.Classify(dec.Device, key.model, concatInputs(reqs, size), now)
	}
	var observed time.Duration
	if err == nil {
		observed = res.Latency()
	}
	if dq != nil {
		dq.completeBatch(virtCharge, clkCharge, observed, p.cfg.Clock()-clkStart, size)
	}
	return res, err
}

// runBatch executes one flushed batch with bounded retry/failover: on an
// execution error the batch re-Selects with every failed device excluded
// and retries on the next-ranked device (after a doubling backoff), so a
// failing device degrades throughput instead of failing every request
// aggregated into the batch. Retries run inline on this worker — they
// never re-enqueue onto another worker's channel, which keeps the drain
// path deadlock-free; the runtime's per-device submit lock serialises
// the cross-device execution with that device's own worker.
//
// Before every attempt — the first and each retry — dead requests are
// culled: a cancelled or deadline-expired request never reaches the
// execute path, and in particular is never retried on a second device
// after its SLO has passed.
func (p *Pipeline) runBatch(dq *deviceQueue, w *batchWork) {
	clkStart := p.cfg.Clock()
	if p.testExecHook != nil {
		p.testExecHook(dq.name)
	}
	live, size := p.cullLive(w.reqs, p.cfg.Clock())
	if size == 0 {
		// Everything died while queued: release the charge without
		// spending device time.
		dq.completeBatch(w.charge, w.clkCharge, 0, 0, 0)
		p.batchDone()
		retireBatchWork(w)
		return
	}
	dec := w.dec
	res, err := p.executeAttempt(dq, w.key, live, size, dec, w.charge, w.clkCharge, clkStart)
	if err != nil {
		excluded := map[string]bool{dec.Device: true}
		p.sched.ReportExecution(dec.Device, err)
		for attempt := 1; err != nil && attempt < p.cfg.MaxAttempts; attempt++ {
			if p.cfg.RetryBackoff > 0 {
				//bomw:wallclock failover backoff pauses the real worker goroutine; a virtual-clock sleep would not give the device time to recover
				time.Sleep(p.cfg.RetryBackoff << (attempt - 1))
			}
			// Deadlines keep ticking through failures and backoff; an
			// expired request must not fail over to another device.
			live, size = p.cullLive(live, p.cfg.Clock())
			if size == 0 {
				break
			}
			next, serr := p.sched.SelectExcluding(w.key.model, size, w.key.pol, p.cfg.Clock(), excluded)
			if serr != nil {
				break // nowhere left to fail over to
			}
			p.retries.Add(1)
			rq := p.queues[next.Device]
			var charge, clkCharge time.Duration
			if rq != nil {
				charge, clkCharge = rq.chargeBatch(size)
			}
			res, err = p.executeAttempt(rq, w.key, live, size, next, charge, clkCharge, p.cfg.Clock())
			p.sched.ReportExecution(next.Device, err)
			if err != nil {
				excluded[next.Device] = true
				continue
			}
			dec = next
			p.failovers.Add(1)
		}
	} else {
		p.sched.ReportExecution(dec.Device, nil)
	}
	if size == 0 {
		// Every surviving request expired or was cancelled during the
		// retry loop; their futures are resolved and their flow
		// references released (cullLive).
		p.batchDone()
		retireBatchWork(w)
		return
	}
	if err == nil {
		_ = p.sched.Observe(dec, res)
	}
	p.batchDone()
	if err != nil {
		p.execFails.Add(1)
		for _, r := range live {
			p.finish(r, &Completion{Decision: dec, Err: err})
			p.releaseReq(r)
		}
		retireBatchWork(w)
		return
	}
	p.deliver(live, size, w.flushAt, dec, res)
	for _, r := range live {
		p.releaseReq(r)
	}
	retireBatchWork(w)
}

// deliver splits a batch result back into per-request completions
// (stage 4).
func (p *Pipeline) deliver(reqs []*pipeReq, size int, flushAt time.Duration, dec Decision, res *opencl.Result) {
	off := 0
	// One completion template per batch, patched per request — the
	// Decision payload (strings, feature slice header) copies once here
	// instead of once per request.
	c := Completion{
		Decision:  dec,
		BatchSize: size,
		Completed: res.Completed,
	}
	energyPer := res.EnergyJ / float64(size)
	for _, r := range reqs {
		c.Wait = flushAt - r.at
		c.Latency = res.Completed - r.at
		c.EnergyJ = energyPer * float64(r.size)
		c.Classes = nil
		if res.Classes != nil {
			c.Classes = append([]int(nil), res.Classes[off:off+r.size]...)
		}
		off += r.size
		p.finish(r, &c)
	}
	// Fold the batch's worst request latency (oldest arrival →
	// completion) into the straggler EWMA, α = 1/8. A plain load/store
	// race between two workers loses at most one sample — fine for a
	// smoothed signal — and keeps this off the hot path's lock budget.
	worst := int64(res.Completed - reqs[0].at)
	for _, r := range reqs {
		if l := int64(res.Completed - r.at); l > worst {
			worst = l
		}
	}
	if worst > 0 {
		if prev := p.latEWMA.Load(); prev == 0 {
			p.latEWMA.Store(worst)
		} else {
			p.latEWMA.Store(prev + (worst-prev)/8)
		}
	}
}

// concatInputs stacks the requests' input tensors along dim 0. Shapes
// were validated against the model spec at Submit, so per-sample layouts
// agree.
func concatInputs(reqs []*pipeReq, size int) *tensor.Tensor {
	first := reqs[0].req.Input
	per := first.Len() / first.Dim(0)
	flat := make([]float32, 0, size*per)
	for _, r := range reqs {
		flat = append(flat, r.req.Input.Data()...)
	}
	shape := append([]int{size}, first.Shape()[1:]...)
	return tensor.FromSlice(flat, shape...)
}

// finish resolves one request's future exactly once, classifying the
// outcome into the stats buckets (ok / Failed / Cancelled / Expired). A
// second resolution of the same request is discarded.
func (p *Pipeline) finish(r *pipeReq, c *Completion) {
	if !r.done.CompareAndSwap(false, true) {
		return
	}
	switch {
	case c.Err == nil:
	case errors.Is(c.Err, ErrDeadlineExceeded):
		p.expired.Add(1)
	case errors.Is(c.Err, context.Canceled), errors.Is(c.Err, context.DeadlineExceeded):
		p.cancelled.Add(1)
	default:
		p.failed.Add(1)
	}
	// Count before delivery: a client that snapshots Stats right after
	// its Wait returns must see its own completion.
	p.completed.Add(1)
	r.fut.ch <- *c // buffered(1); the CAS above makes delivery exactly-once
}
