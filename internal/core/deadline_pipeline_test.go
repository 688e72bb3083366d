package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bomw/internal/opencl"
)

// countingInjector attaches a fault injector with an empty plan on every
// device: it injects nothing and acts as a pure execution counter — the
// mechanism the "never executed" assertions use.
func countingInjector(s *Scheduler) *opencl.FaultInjector {
	fi := opencl.NewFaultInjector(1)
	s.Runtime().SetFaultInjector(fi)
	for _, name := range s.Devices() {
		fi.SetPlan(name, opencl.FaultPlan{})
	}
	return fi
}

func totalExecutions(fi *opencl.FaultInjector) int64 {
	var n int64
	for _, st := range fi.Stats() {
		n += st.Executions
	}
	return n
}

// TestPipelineSubmitRejectsCancelledContext is the regression test for
// the admission bug: Submit used to accept requests whose context was
// already cancelled, spending queue slots and device time on work nobody
// was waiting for.
func TestPipelineSubmitRejectsCancelledContext(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	p := NewPipeline(s, PipelineConfig{ProbeInterval: -1})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fut, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with cancelled context = %v, want context.Canceled", err)
	}
	if fut != nil {
		t.Fatal("Submit returned a future for a dead request")
	}
	if st := p.Stats(); st.Submitted != 0 {
		t.Fatalf("dead request was admitted: %+v", st)
	}
}

// TestFutureWaitRaceNeverLosesCompletion hammers the resolve-exactly-once
// contract from the waiter's side: a context cancelled concurrently with
// completion delivery must never lose the completion — an abandoned Wait
// can always be retried with a fresh context and still observe it.
func TestFutureWaitRaceNeverLosesCompletion(t *testing.T) {
	for i := 0; i < 500; i++ {
		fut := &Future{ch: make(chan Completion, 1)}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			fut.ch <- Completion{BatchSize: 42}
		}()
		go func() {
			defer wg.Done()
			cancel()
		}()
		c, err := fut.Wait(ctx)
		if err != nil {
			// The cancel won the race: delivery must still be there.
			c2, err2 := fut.Wait(context.Background())
			if err2 != nil {
				t.Fatalf("iter %d: completion lost after cancelled Wait: %v", i, err2)
			}
			c = c2
		}
		if c.BatchSize != 42 {
			t.Fatalf("iter %d: wrong completion %+v", i, c)
		}
		wg.Wait()
		cancel()
	}
}

// TestPipelineRejectsInfeasibleDeadline: admission control must reject a
// request whose SLO no device can meet — distinctly from queue-full
// shedding — while a generous SLO on the same request sails through.
func TestPipelineRejectsInfeasibleDeadline(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	p := NewPipeline(s, PipelineConfig{ProbeInterval: -1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	_, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8, Deadline: time.Nanosecond})
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("1ns SLO admitted: err = %v, want ErrDeadlineInfeasible", err)
	}
	if st := p.Stats(); st.Infeasible != 1 || st.Submitted != 0 {
		t.Fatalf("stats after infeasible reject = %+v", st)
	}

	c, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8, Deadline: time.Minute})
	if err != nil || c.Err != nil {
		t.Fatalf("feasible SLO failed: %v / %v", err, c.Err)
	}
}

// TestPipelineCullsExpiredBeforeExecute is the acceptance assertion: an
// admitted request whose deadline passes while it is queued resolves with
// ErrDeadlineExceeded and never reaches a device's execute path — proven
// by fault-injector execution counters staying flat.
func TestPipelineCullsExpiredBeforeExecute(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	fi := countingInjector(s)
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, ProbeInterval: -1, DisableAdmissionControl: true})
	release := make(chan struct{})
	p.testExecHook = func(string) { <-release }
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// One SLO-free blocker occupies a worker; with every worker gated on
	// the hook, nothing can execute until release.
	blocker, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8, Deadline: -1})
	if err != nil {
		t.Fatal(err)
	}
	const expiring = 4
	futs := make([]*Future, 0, expiring)
	for i := 0; i < expiring; i++ {
		fut, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8, Deadline: 10 * time.Millisecond})
		if err != nil {
			t.Fatalf("expiring submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	time.Sleep(50 * time.Millisecond) // every 10 ms SLO is now long gone
	close(release)

	for i, fut := range futs {
		c, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if !errors.Is(c.Err, ErrDeadlineExceeded) {
			t.Fatalf("expired request %d resolved with %v, want ErrDeadlineExceeded", i, c.Err)
		}
	}
	if c, err := blocker.Wait(ctx); err != nil || c.Err != nil {
		t.Fatalf("blocker: %v / %v", err, c.Err)
	}
	p.Close()

	st := p.Stats()
	if st.Expired != expiring {
		t.Fatalf("Expired = %d, want %d (stats %+v)", st.Expired, expiring, st)
	}
	// Only the SLO-free blocker may have touched a device.
	if n := totalExecutions(fi); n != 1 {
		t.Fatalf("expired requests reached the execute path: %d executions, want 1 (%+v)", n, fi.Stats())
	}
}

// TestPipelineNoRetryAfterDeadline covers the deadline × failover
// interaction: when the first attempt fails and the request's SLO
// expires during the retry backoff, the request must be culled — not
// retried on a second device.
func TestPipelineNoRetryAfterDeadline(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	fi := countingInjector(s)
	for _, name := range s.Devices() {
		fi.SetPlan(name, opencl.FaultPlan{ErrorRate: 1})
	}
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, ProbeInterval: -1, RetryBackoff: 60 * time.Millisecond})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Feasible at admission (idle queues), expired by the time the 60 ms
	// backoff after the failed first attempt has elapsed.
	c, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 4, Deadline: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(c.Err, ErrDeadlineExceeded) {
		t.Fatalf("request resolved with %v, want ErrDeadlineExceeded (culled before retry)", c.Err)
	}
	st := p.Stats()
	if st.Retries != 0 {
		t.Fatalf("expired request was retried: %+v", st)
	}
	if st.Expired != 1 || st.ExecFailures != 0 {
		t.Fatalf("stats = %+v, want Expired=1 ExecFailures=0", st)
	}
	if n := totalExecutions(fi); n != 1 {
		t.Fatalf("executions = %d, want exactly the failed first attempt (%+v)", n, fi.Stats())
	}
}

// TestFeasibleWithinSeesLoad: the admission predictor must fold both the
// committed busy horizon of the simulated devices and the live worker
// queue occupancy (the queue probe) into its completion estimates.
func TestFeasibleWithinSeesLoad(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})

	feasible, idleBest, err := s.FeasibleWithin("mnist-small", 8, time.Hour, 0)
	if err != nil || !feasible {
		t.Fatalf("idle system infeasible for a 1h SLO: %v feasible=%t", err, feasible)
	}
	if idleBest <= 0 {
		t.Fatalf("predicted latency %v, want positive", idleBest)
	}

	// Commit a large batch on every device: the busy horizon moves out,
	// and the best prediction must move with it.
	for _, name := range s.Devices() {
		if _, err := s.Runtime().Estimate(name, "mnist-small", 65536, 0); err != nil {
			t.Fatal(err)
		}
	}
	feasible, busyBest, err := s.FeasibleWithin("mnist-small", 8, idleBest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if busyBest <= idleBest {
		t.Fatalf("busy prediction %v not above idle prediction %v", busyBest, idleBest)
	}
	if feasible {
		t.Fatalf("deadline %v still feasible with every device busy until ≥%v", idleBest, busyBest)
	}

	// The live queue probe feeds the same prediction: an hour of queued
	// work makes a one-minute SLO infeasible.
	s.SetQueueProbe(func(string) time.Duration { return time.Hour })
	feasible, _, err = s.FeasibleWithin("mnist-small", 8, time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if feasible {
		t.Fatal("an hour of queued work left a 1-minute SLO feasible")
	}
	s.SetQueueProbe(nil)
}

// TestPipelineModelSLODefaults: requests without an explicit Deadline
// inherit the per-model or pipeline-wide default, and Deadline < 0 opts
// out entirely.
func TestPipelineModelSLODefaults(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	p := NewPipeline(s, PipelineConfig{
		ProbeInterval: -1,
		DefaultSLO:    time.Nanosecond, // impossible: everything using the default is rejected
		ModelSLO:      map[string]time.Duration{"mnist-small": time.Minute},
	})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// mnist-small rides its generous per-model SLO.
	c, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8})
	if err != nil || c.Err != nil {
		t.Fatalf("per-model SLO: %v / %v", err, c.Err)
	}
	// mnist-mlp falls back to the impossible pipeline default.
	_, err = p.Submit(ctx, PipelineRequest{Model: "mnist-deep", Policy: BestThroughput, Batch: 8})
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("default SLO not applied: err = %v", err)
	}
	// Deadline < 0 opts out of the default.
	c, err = p.Do(ctx, PipelineRequest{Model: "mnist-deep", Policy: BestThroughput, Batch: 8, Deadline: -1})
	if err != nil || c.Err != nil {
		t.Fatalf("SLO opt-out: %v / %v", err, c.Err)
	}
}

// TestSoakDeadlineOverload is the overload acceptance soak (`make
// soak-deadline` runs it under -race): concurrent clients drive the
// pipeline far past saturation (a slow executor gates every batch) with
// mixed SLOs — generous, tight, impossible, and none. Graceful
// degradation means: feasible-SLO goodput keeps ≥95% SLO attainment,
// impossible-SLO work is rejected at admission (never executed), and the
// stats counters account for every submit attempt and every admitted
// request.
func TestSoakDeadlineOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	s := smallScheduler(t, Config{})
	p := NewPipeline(s, PipelineConfig{
		QueueDepth:       16,
		DeviceQueueDepth: 2,
		MaxBatch:         8,
		Window:           500 * time.Microsecond,
		ProbeInterval:    -1,
	})
	// The slow executor sets the real capacity: ~300 µs per batch per
	// device, so tight-loop clients offer far beyond 2× saturation and
	// backpressure + admission control must do the shedding.
	p.testExecHook = func(string) { time.Sleep(300 * time.Microsecond) }
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const (
		feasibleSLO = 250 * time.Millisecond
		tightSLO    = 2 * time.Millisecond
		perClient   = 150
	)
	type classStats struct {
		attempts, shed, rejected atomic.Int64
		expired, okInSLO, okLate atomic.Int64
	}
	var feasible, tight, background, impossible classStats
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	client := func(slo time.Duration, cs *classStats) {
		defer wg.Done()
		for i := 0; i < perClient; i++ {
			cs.attempts.Add(1)
			start := time.Now()
			fut, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 4, Deadline: slo})
			switch {
			case errors.Is(err, ErrAdmissionFull):
				cs.shed.Add(1)
				continue
			case errors.Is(err, ErrDeadlineInfeasible):
				cs.rejected.Add(1)
				continue
			case err != nil:
				errCh <- err
				return
			}
			c, err := fut.Wait(ctx)
			if err != nil {
				errCh <- err
				return
			}
			switch {
			case errors.Is(c.Err, ErrDeadlineExceeded):
				cs.expired.Add(1)
			case c.Err != nil:
				errCh <- c.Err
				return
			case slo <= 0 || time.Since(start) <= slo:
				cs.okInSLO.Add(1)
			default:
				cs.okLate.Add(1)
			}
		}
	}
	// 8 generous-SLO clients, 8 SLO-free background clients saturating
	// the system, 4 tight-SLO clients exercising expiry culling and
	// prediction-driven rejection, and 4 impossible-SLO clients that
	// must all be rejected at admission.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go client(feasibleSLO, &feasible)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go client(-1, &background)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go client(tightSLO, &tight)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go client(time.Nanosecond, &impossible)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("soak client failed: %v", err)
	}
	p.Close()
	st := p.Stats()

	sum := func(f func(*classStats) int64) int64 {
		return f(&feasible) + f(&tight) + f(&background) + f(&impossible)
	}
	attempts := sum(func(c *classStats) int64 { return c.attempts.Load() })
	shed := sum(func(c *classStats) int64 { return c.shed.Load() })
	rejected := sum(func(c *classStats) int64 { return c.rejected.Load() })
	expired := sum(func(c *classStats) int64 { return c.expired.Load() })
	ok := sum(func(c *classStats) int64 { return c.okInSLO.Load() + c.okLate.Load() })

	// (1) Impossible SLOs are rejected before admission — never executed.
	if got := impossible.rejected.Load(); got != impossible.attempts.Load() {
		t.Fatalf("impossible-SLO: %d of %d rejected, want all (shed=%d ok=%d expired=%d)",
			got, impossible.attempts.Load(), impossible.shed.Load(),
			impossible.okInSLO.Load()+impossible.okLate.Load(), impossible.expired.Load())
	}
	// (2) Every submit attempt is accounted for:
	// submitted + shed + infeasible = attempts.
	if total := st.Submitted + st.Shed + st.Infeasible; total != attempts {
		t.Fatalf("attempt accounting: submitted %d + shed %d + infeasible %d = %d ≠ attempts %d",
			st.Submitted, st.Shed, st.Infeasible, total, attempts)
	}
	if st.Shed != shed || st.Infeasible != rejected {
		t.Fatalf("shed/infeasible counters disagree with clients: %+v vs shed=%d rejected=%d", st, shed, rejected)
	}
	// (3) Every admitted request resolved into exactly one outcome:
	// ok + failed + cancelled + expired = admitted.
	if st.Completed != st.Submitted || st.InFlight != 0 {
		t.Fatalf("drain left work behind: %+v", st)
	}
	if ok+st.Failed+st.Cancelled+st.Expired != st.Submitted {
		t.Fatalf("outcome accounting: ok %d + failed %d + cancelled %d + expired %d ≠ admitted %d",
			ok, st.Failed, st.Cancelled, st.Expired, st.Submitted)
	}
	if st.Failed != 0 || st.Cancelled != 0 {
		t.Fatalf("no faults were injected, yet %+v", st)
	}
	if st.Expired != expired {
		t.Fatalf("Expired = %d, clients saw %d", st.Expired, expired)
	}
	// (4) Goodput under ≥2× saturation: admitted generous-SLO requests
	// keep ≥95% SLO attainment — overload is absorbed by shedding and
	// culling, not by blowing the tails of feasible work.
	feasAdmitted := feasible.okInSLO.Load() + feasible.okLate.Load() + feasible.expired.Load()
	if feasAdmitted == 0 {
		t.Fatal("no generous-SLO request was admitted")
	}
	if att := float64(feasible.okInSLO.Load()) / float64(feasAdmitted); att < 0.95 {
		t.Fatalf("feasible-SLO attainment %.3f < 0.95 (ok=%d late=%d expired=%d)",
			att, feasible.okInSLO.Load(), feasible.okLate.Load(), feasible.expired.Load())
	}
	if background.okInSLO.Load() == 0 {
		t.Fatal("background load never completed anything")
	}
	t.Logf("soak: attempts=%d admitted=%d shed=%d infeasible=%d expired=%d ok=%d | feasible ok=%d late=%d expired=%d | tight ok=%d rejected=%d expired=%d",
		attempts, st.Submitted, st.Shed, st.Infeasible, st.Expired, ok,
		feasible.okInSLO.Load(), feasible.okLate.Load(), feasible.expired.Load(),
		tight.okInSLO.Load(), tight.rejected.Load(), tight.expired.Load())
}
