package main

import (
	"fmt"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/server"
)

// outcomes counts what the load generator saw, one bucket per request.
type outcomes struct {
	Attempted int64 // submit calls (HTTP requests sent)
	OK        int64 // completed with a verified output
	Wrong     int64 // completed, but the output failed verification
	Shed      int64 // refused for lack of capacity (admission full, 503)
	Rejected  int64 // refused by admission control as deadline-infeasible
	Expired   int64 // admitted, culled once the deadline passed
	Failed    int64 // any other error
}

func (o *outcomes) addAll(x outcomes) {
	o.Attempted += x.Attempted
	o.OK += x.OK
	o.Wrong += x.Wrong
	o.Shed += x.Shed
	o.Rejected += x.Rejected
	o.Expired += x.Expired
	o.Failed += x.Failed
}

// errors is every request that did not complete with a correct output.
func (o outcomes) errors() int64 { return o.Wrong + o.Shed + o.Rejected + o.Expired + o.Failed }

// fleetSnap is the program's own counters at one instant: the fleet
// router, and every node's pipeline and scheduler.
type fleetSnap struct {
	Fleet  cluster.FleetStats
	Pipes  []core.PipelineStats
	Scheds []core.Stats
}

func snapshot(srv *server.Server) fleetSnap {
	s := fleetSnap{Fleet: srv.Cluster().Stats()}
	for _, n := range srv.Nodes() {
		s.Pipes = append(s.Pipes, n.Pipeline().Stats())
		s.Scheds = append(s.Scheds, n.Scheduler().Stats())
	}
	return s
}

// settledSnapshot snapshots once every admitted request of the window
// has been counted as completed. A pipeline bumps its completion counter
// just after resolving the future, so the last few completions can trail
// the generator's final Wait by a moment.
func settledSnapshot(srv *server.Server, before fleetSnap) fleetSnap {
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := snapshot(srv)
		if s.Fleet.Completed-before.Fleet.Completed >= s.Fleet.Submitted-before.Fleet.Submitted || time.Now().After(deadline) {
			return s
		}
		time.Sleep(time.Millisecond)
	}
}

// pipeTotals sums the pipeline counters over nodes.
func pipeTotals(ps []core.PipelineStats) core.PipelineStats {
	var t core.PipelineStats
	for _, p := range ps {
		t.Submitted += p.Submitted
		t.Shed += p.Shed
		t.Infeasible += p.Infeasible
		t.Cancelled += p.Cancelled
		t.Expired += p.Expired
		t.Failed += p.Failed
		t.Completed += p.Completed
		t.Batches += p.Batches
		t.SizeFlushes += p.SizeFlushes
		t.WindowFlushes += p.WindowFlushes
		t.IdleFlushes += p.IdleFlushes
		t.DrainFlushes += p.DrainFlushes
		t.Retries += p.Retries
		t.HedgesLaunched += p.HedgesLaunched
		t.HedgesWon += p.HedgesWon
	}
	return t
}

// checkAccounting verifies the generator's outcome counts against the
// program's counters over a window (before and after are snapshots taken
// with no request in flight) and the counters' own invariants. It returns
// one message per violated identity.
func checkAccounting(o outcomes, before, after fleetSnap) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if sum := o.OK + o.Wrong + o.Shed + o.Rejected + o.Expired + o.Failed; sum != o.Attempted {
		fail("generator: ok+wrong+shed+rejected+expired+failed = %d, attempted = %d", sum, o.Attempted)
	}
	f0, f1 := before.Fleet, after.Fleet
	if d := f1.Submits - f0.Submits; d != o.Attempted {
		fail("cluster: %d submits counted, generator attempted %d", d, o.Attempted)
	}
	if d := f1.RouteFailures - f0.RouteFailures; d != o.Shed+o.Rejected {
		fail("cluster: %d route failures counted, generator saw %d shed + %d rejected", d, o.Shed, o.Rejected)
	}
	admitted := f1.Submitted - f0.Submitted
	if want := o.OK + o.Wrong + o.Expired + o.Failed; admitted != want {
		fail("pipelines: %d admitted, generator saw %d resolved futures", admitted, want)
	}
	if d := f1.Completed - f0.Completed; d != admitted {
		fail("pipelines: %d admitted but %d completed", admitted, d)
	}
	if d := f1.Expired - f0.Expired; d != o.Expired {
		fail("pipelines: %d expired counted, generator saw %d", d, o.Expired)
	}
	if d := (f1.Failed - f0.Failed) + (f1.Cancelled - f0.Cancelled); d != o.Failed {
		fail("pipelines: %d failed or cancelled counted, generator saw %d failed", d, o.Failed)
	}
	if f1.NodeHedgesWon > f1.NodeHedges {
		fail("cluster: node hedges won %d > launched %d", f1.NodeHedgesWon, f1.NodeHedges)
	}
	for i, p := range after.Pipes {
		if p.HedgesWon > p.HedgesLaunched {
			fail("node%d: hedges won %d > launched %d", i, p.HedgesWon, p.HedgesLaunched)
		}
	}
	return bad
}
