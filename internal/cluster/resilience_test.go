package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"bomw/internal/core"
)

// fleetStats snapshots c and asserts the hedge-counter invariant every
// snapshot must hold: node hedge wins never exceed launches.
func fleetStats(t testing.TB, c *Cluster) FleetStats {
	t.Helper()
	st := c.Stats()
	if st.NodeHedgesWon > st.NodeHedges {
		t.Errorf("NodeHedgesWon %d > NodeHedges %d", st.NodeHedgesWon, st.NodeHedges)
	}
	return st
}

// serveCluster builds a fleet of serving fakes (instant completions by
// default) under the least-loaded policy, loads ordered by index so the
// routing order is deterministic: node0 first, node1 second, ...
func serveCluster(t *testing.T, n int, cfg Config) (*Cluster, []*fakeNode) {
	t.Helper()
	fakes := make([]*fakeNode, n)
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		fakes[i] = newFakeNode("node"+string(rune('0'+i)), int64(i))
		fakes[i].setServe(0, time.Millisecond, nil)
		nodes[i] = fakes[i]
	}
	if cfg.Policy == nil {
		pol, err := PolicyByName("least-loaded", 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = pol
	}
	c, err := New(nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, fakes
}

// TestMassEvictionReturnsErrNoHealthyNodes is the satellite regression:
// with every node out of the routing set, Submit fails with the typed
// sentinel (under both its new and pre-PR-9 names) and the server-facing
// retry hint is a sane positive floor.
func TestMassEvictionReturnsErrNoHealthyNodes(t *testing.T) {
	c, _ := serveCluster(t, 3, Config{})
	defer c.Close()
	for _, name := range c.NodeNames() {
		if err := c.Evict(name); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 1})
	if !errors.Is(err, ErrNoHealthyNodes) {
		t.Fatalf("Submit = %v, want ErrNoHealthyNodes", err)
	}
	if !errors.Is(err, ErrNoReadyNodes) {
		t.Fatalf("pre-PR-9 alias broken: %v is not ErrNoReadyNodes", err)
	}
	if hint := c.ReadmissionHint(); hint <= 0 {
		t.Fatalf("ReadmissionHint = %v, want > 0", hint)
	}
}

// TestChaosWindowBlocksRoutingAndHintsRecovery: a fleet whose only node
// is inside a scripted crash window refuses with ErrNoHealthyNodes and
// derives the retry hint from the window's remaining span.
func TestChaosWindowBlocksRoutingAndHintsRecovery(t *testing.T) {
	ci := NewChaosInjector([]ChaosPlan{
		{Node: "node0", Crashes: []ChaosWindow{{Start: 0, End: 2 * time.Second}}},
	})
	c, _ := serveCluster(t, 1, Config{
		Chaos: ci,
		Clock: func() time.Duration { return 500 * time.Millisecond },
	})
	defer c.Close()
	_, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 1})
	if !errors.Is(err, ErrNoHealthyNodes) {
		t.Fatalf("Submit inside crash window = %v, want ErrNoHealthyNodes", err)
	}
	if hint := c.ReadmissionHint(); hint != 1500*time.Millisecond {
		t.Fatalf("ReadmissionHint = %v, want 1.5s (window remainder)", hint)
	}
	c.Sweep()
	st := fleetStats(t, c)
	if st.ChaosTrips != 1 || !st.PerNode[0].ChaosDown {
		t.Fatalf("sweep did not mark the chaos window: %+v", st.PerNode[0])
	}
}

// TestClusterHedgePredictive: the primary's own completion estimate eats
// more than half the slack, so the hedge launches immediately and its
// result wins while the stuck primary is cancelled as a benign loser.
func TestClusterHedgePredictive(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{NodeHedge: true})
	fakes[0].predict = 40 * time.Millisecond            // > deadline/2: predictive trigger
	fakes[0].setServe(time.Hour, time.Millisecond, nil) // and genuinely stuck
	fakes[1].predict = time.Millisecond
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := fut.Wait(context.Background())
	if err != nil || comp.Err != nil {
		t.Fatalf("hedged request failed: %v / %v", err, comp.Err)
	}
	c.Close() // settles the loser's relay before reading counters
	st := fleetStats(t, c)
	if st.NodeHedges != 1 || st.NodeHedgesWon != 1 {
		t.Fatalf("NodeHedges=%d Won=%d, want 1 and 1", st.NodeHedges, st.NodeHedgesWon)
	}
	if st.BenignCancels != 1 {
		t.Fatalf("BenignCancels = %d, want 1 (the cancelled primary)", st.BenignCancels)
	}
	if got := fakes[1].acceptCount(); got != 1 {
		t.Fatalf("hedge target accepted %d, want 1", got)
	}
}

// TestClusterHedgeReactive: the primary predicts comfortably but stalls
// on the wall clock, so the half-slack timer fires the backup.
func TestClusterHedgeReactive(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{NodeHedge: true})
	fakes[0].predict = time.Millisecond                      // prediction sees no danger
	fakes[0].setServe(10*time.Second, time.Millisecond, nil) // reality disagrees
	fakes[1].predict = time.Millisecond
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	comp, err := fut.Wait(ctx)
	if err != nil || comp.Err != nil {
		t.Fatalf("reactively hedged request failed: %v / %v", err, comp.Err)
	}
	c.Close()
	st := fleetStats(t, c)
	if st.NodeHedges != 1 || st.NodeHedgesWon != 1 {
		t.Fatalf("NodeHedges=%d Won=%d, want 1 and 1", st.NodeHedges, st.NodeHedgesWon)
	}
}

// TestClusterHedgeNoTarget: a single-node fleet has nothing to hedge
// onto — the trigger fires, finds no untried node, and the request still
// completes on the primary with no counters moved.
func TestClusterHedgeNoTarget(t *testing.T) {
	c, fakes := serveCluster(t, 1, Config{NodeHedge: true})
	fakes[0].predict = 40 * time.Millisecond
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp, err := fut.Wait(context.Background()); err != nil || comp.Err != nil {
		t.Fatalf("request failed: %v / %v", err, comp.Err)
	}
	c.Close()
	if st := fleetStats(t, c); st.NodeHedges != 0 {
		t.Fatalf("NodeHedges = %d on a 1-node fleet", st.NodeHedges)
	}
}

// TestClusterHedgeRealNodes drives node hedging through two real
// core.Nodes. node0 is a scripted straggler: armSlowPlans puts an
// always-on latency spike on each of its devices, and a spiked backlog
// on every device pushes its busy horizon out, so node0's own
// completion estimate eats more than half the request's slack. The
// predictive trigger therefore launches the hedge inside Submit. node0
// batches with HoldWindow and a window far longer than the test, so it
// cannot answer before Close: that scripted stall, not a wall-clock
// race, makes node1 the winner. The virtual clock is frozen at 0.
//
// Whether node0 still executes the loser during Close is not asserted:
// the winning relay cancels its siblings only after it resolves the
// caller's future, so Close's drain can flush the primary first.
func TestClusterHedgeRealNodes(t *testing.T) {
	tmpl := chaosTemplate(t)
	rep, err := tmpl.Replica(1)
	if err != nil {
		t.Fatal(err)
	}
	clock := func() time.Duration { return 0 }
	pcfg := core.PipelineConfig{Clock: clock, ProbeInterval: -1}
	held := pcfg
	held.HoldWindow, held.Window = true, time.Hour
	nodes := []*core.Node{core.NewNode("node0", tmpl, held), core.NewNode("node1", rep, pcfg)}
	pol, err := PolicyByName("least-loaded", 1) // idle ties route to node0
	if err != nil {
		t.Fatal(err)
	}
	c, err := New([]Node{nodes[0], nodes[1]}, Config{Policy: pol, Clock: clock, NodeHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	armSlowPlans(nodes, NewChaosInjector([]ChaosPlan{{Node: "node0", SlowFactor: 8}}), 9)

	const model = "simple"
	rt := nodes[0].Scheduler().Runtime()
	for _, dev := range nodes[0].Scheduler().Devices() {
		if _, err := rt.Estimate(dev, model, 1<<22, 0); err != nil {
			t.Fatal(err)
		}
	}

	_, pred0, err := nodes[0].FeasibleWithin(model, 1, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, pred1, err := nodes[1].FeasibleWithin(model, 1, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	// node0 admits the request (pred0 ≤ deadline) yet predicts past
	// half its slack; node1 meets it comfortably.
	deadline := pred0 + pred0/2
	if pred1 >= pred0 || pred1 > deadline/2 {
		t.Fatalf("predictions node0 %v node1 %v: node0 must be the slower node", pred0, pred1)
	}

	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: model, Policy: core.BestThroughput, Batch: 1, Deadline: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().NodeHedges; n != 1 {
		t.Fatalf("NodeHedges = %d when Submit returned, want the predictive hedge launched", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	comp, err := fut.Wait(ctx)
	if err != nil || comp.Err != nil {
		t.Fatalf("hedged request failed: %v / %v", err, comp.Err)
	}
	// node0 cannot finish anything before its backlog drains on the
	// frozen clock, so a completion sooner than pred0 is node1's.
	if comp.Latency >= pred0 {
		t.Fatalf("completion latency %v, want node1's (under node0's backlog %v)", comp.Latency, pred0)
	}
	c.Close() // settles every relay before the counters are read

	st := fleetStats(t, c)
	if st.NodeHedges != 1 || st.NodeHedgesWon < 1 {
		t.Fatalf("NodeHedges=%d Won=%d, want 1 launched and won", st.NodeHedges, st.NodeHedgesWon)
	}
	if p0 := nodes[0].Stats().Pipeline; p0.Submitted != 1 {
		t.Fatalf("node0 pipeline = %+v, want the primary admitted there", p0)
	}
	if p1 := nodes[1].Stats().Pipeline; p1.Submitted != 1 || p1.Completed != 1 || p1.Failed+p1.Cancelled+p1.Expired != 0 {
		t.Fatalf("node1 pipeline = %+v, want the one successful completion", p1)
	}
}

// TestHedgeOutlivesFailedPrimary: the primary fails while the hedge is
// still racing — the error is held back and the hedge's success resolves
// the caller's future (first *successful* result wins).
func TestHedgeOutlivesFailedPrimary(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{NodeHedge: true})
	fakes[0].predict = 40 * time.Millisecond // predictive trigger
	fakes[0].setServe(0, time.Millisecond, core.ErrDeadlineExceeded)
	fakes[1].setServe(20*time.Millisecond, time.Millisecond, nil)
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := fut.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if comp.Err != nil {
		t.Fatalf("failed primary stole the future from a winning hedge: %v", comp.Err)
	}
	c.Close()
	if st := fleetStats(t, c); st.NodeHedgesWon != 1 {
		t.Fatalf("NodeHedgesWon = %d, want 1", st.NodeHedgesWon)
	}
}

// TestAllAttemptsFailSurfacesError: when every attempt fails, the last
// relay out must still resolve the caller's future with the error.
func TestAllAttemptsFailSurfacesError(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{NodeHedge: true})
	fakes[0].predict = 40 * time.Millisecond
	fakes[0].setServe(0, time.Millisecond, core.ErrDeadlineExceeded)
	fakes[1].setServe(5*time.Millisecond, time.Millisecond, core.ErrDeadlineExceeded)
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	comp, err := fut.Wait(ctx)
	if err != nil {
		t.Fatalf("future never resolved: %v", err)
	}
	if !errors.Is(comp.Err, core.ErrDeadlineExceeded) {
		t.Fatalf("comp.Err = %v, want ErrDeadlineExceeded", comp.Err)
	}
	c.Close()
	if st := fleetStats(t, c); st.NodeHedgesWon != 0 {
		t.Fatalf("NodeHedgesWon = %d for a failed hedge, want 0", st.NodeHedgesWon)
	}
}

// TestStragglerMigration: a deadline request queued behind a node that
// goes suspect is cancelled node-side, observed by its relay, and
// resubmitted on a healthy node — the caller's future resolves with the
// migrated completion and the loss is accounted benign.
func TestStragglerMigration(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{Straggler: StragglerConfig{Enabled: true}})
	fakes[0].setServe(time.Hour, time.Millisecond, nil) // queued forever until cancelled
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.suspectMember(c.members[0], 30*time.Millisecond) // migrates pending work away
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	comp, err := fut.Wait(ctx)
	if err != nil || comp.Err != nil {
		t.Fatalf("migrated request failed: %v / %v", err, comp.Err)
	}
	c.Close()
	st := fleetStats(t, c)
	if st.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", st.Migrations)
	}
	if st.BenignCancels != 1 {
		t.Fatalf("BenignCancels = %d, want 1", st.BenignCancels)
	}
	if got := fakes[1].acceptCount(); got != 1 {
		t.Fatalf("migration target accepted %d, want 1", got)
	}
}

// TestMigrationNoTargetStillResolves: migration with nowhere to go must
// not strand the caller — the last relay out resolves the detached
// future with the cancellation it saw.
func TestMigrationNoTargetStillResolves(t *testing.T) {
	c, fakes := serveCluster(t, 1, Config{Straggler: StragglerConfig{Enabled: true}})
	fakes[0].setServe(time.Hour, time.Millisecond, nil)
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.suspectMember(c.members[0], 30*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	comp, err := fut.Wait(ctx)
	if err != nil {
		t.Fatalf("future never resolved: %v", err)
	}
	if comp.Err == nil {
		t.Fatal("a migration with no target cannot have completed")
	}
	c.Close()
	if st := fleetStats(t, c); st.Migrations != 0 {
		t.Fatalf("Migrations = %d, want 0 (no target)", st.Migrations)
	}
}

// TestClusterKillRacesDrain is the satellite -race regression at the
// fleet tier: Kill and Drain land on the same node concurrently under
// live traffic, serialise through the member's lifecycle mutex, and the
// fleet keeps every future it handed out.
func TestClusterKillRacesDrain(t *testing.T) {
	pol, _ := PolicyByName("least-loaded", 1)
	c := realCluster(t, 3, Config{Policy: pol, SweepEvery: 25}, core.PipelineConfig{
		Window: 200 * time.Microsecond, MaxBatch: 16,
	})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var accepted, resolved int64
	var mu sync.Mutex
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				fut, err := c.Submit(ctx, core.PipelineRequest{Model: "simple", Policy: core.BestThroughput, Batch: 4})
				if err != nil {
					continue // refusals are fine mid-kill
				}
				mu.Lock()
				accepted++
				mu.Unlock()
				if _, err := fut.Wait(ctx); err == nil {
					mu.Lock()
					resolved++
					mu.Unlock()
				}
			}
		}()
	}
	var lifecycle sync.WaitGroup
	lifecycle.Add(2)
	go func() { defer lifecycle.Done(); _ = c.Drain("node1") }()
	go func() { defer lifecycle.Done(); _ = c.Kill("node1") }()
	done := make(chan struct{})
	go func() { lifecycle.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("Kill racing Drain deadlocked")
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if accepted != resolved {
		t.Fatalf("accepted %d futures, resolved %d", accepted, resolved)
	}
	st := fleetStats(t, c)
	if st.Completed != st.Submitted {
		t.Fatalf("fleet lost futures across the race: %+v", st)
	}
}
