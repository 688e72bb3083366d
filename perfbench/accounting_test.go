package main

import (
	"strings"
	"testing"

	"bomw/internal/cluster"
	"bomw/internal/core"
)

// windowSnaps returns before/after snapshots of a fleet that admitted
// `admitted` requests (completing all of them), counted `expired` and
// `failed` among them, and refused `refused`.
func windowSnaps(attempts, admitted, refused, expired, failed int64) (fleetSnap, fleetSnap) {
	before := fleetSnap{
		Fleet: cluster.FleetStats{Submits: 100, Submitted: 90, Completed: 90, RouteFailures: 10},
		Pipes: []core.PipelineStats{{}},
	}
	after := fleetSnap{
		Fleet: cluster.FleetStats{
			Submits:       100 + attempts,
			Submitted:     90 + admitted,
			Completed:     90 + admitted,
			RouteFailures: 10 + refused,
			Expired:       expired,
			Failed:        failed,
		},
		Pipes: []core.PipelineStats{{}},
	}
	return before, after
}

func TestCheckAccountingBalanced(t *testing.T) {
	o := outcomes{Attempted: 20, OK: 12, Wrong: 1, Shed: 3, Rejected: 1, Expired: 2, Failed: 1}
	before, after := windowSnaps(20, 16, 4, 2, 1)
	if bad := checkAccounting(o, before, after); len(bad) != 0 {
		t.Fatalf("balanced window reported %v", bad)
	}
}

func TestCheckAccountingCatchesEachIdentity(t *testing.T) {
	o := outcomes{Attempted: 20, OK: 12, Wrong: 1, Shed: 3, Rejected: 1, Expired: 2, Failed: 1}
	cases := []struct {
		name string
		mut  func(o *outcomes, after *fleetSnap)
		want string
	}{
		{"generator buckets", func(o *outcomes, _ *fleetSnap) { o.OK-- }, "generator:"},
		{"submit count", func(_ *outcomes, a *fleetSnap) { a.Fleet.Submits++ }, "submits counted"},
		{"route failures", func(_ *outcomes, a *fleetSnap) { a.Fleet.RouteFailures-- }, "route failures"},
		{"admitted", func(_ *outcomes, a *fleetSnap) { a.Fleet.Submitted++; a.Fleet.Completed++ }, "admitted, generator saw"},
		{"completed", func(_ *outcomes, a *fleetSnap) { a.Fleet.Completed-- }, "completed"},
		{"expired", func(_ *outcomes, a *fleetSnap) { a.Fleet.Expired++ }, "expired counted"},
		{"failed", func(_ *outcomes, a *fleetSnap) { a.Fleet.Cancelled++ }, "failed or cancelled"},
		{"node hedges", func(_ *outcomes, a *fleetSnap) { a.Fleet.NodeHedges, a.Fleet.NodeHedgesWon = 1, 2 }, "node hedges won"},
		{"pipeline hedges", func(_ *outcomes, a *fleetSnap) {
			a.Pipes[0].HedgesLaunched, a.Pipes[0].HedgesWon = 3, 4
		}, "hedges won 4 > launched 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := o
			before, after := windowSnaps(20, 16, 4, 2, 1)
			c.mut(&o, &after)
			bad := checkAccounting(o, before, after)
			if len(bad) == 0 || !strings.Contains(strings.Join(bad, "\n"), c.want) {
				t.Fatalf("got %v, want a message containing %q", bad, c.want)
			}
		})
	}
}

func TestPipeTotals(t *testing.T) {
	got := pipeTotals([]core.PipelineStats{
		{Submitted: 2, Batches: 1, SizeFlushes: 1, HedgesLaunched: 1},
		{Submitted: 3, Batches: 2, IdleFlushes: 2, HedgesWon: 1},
	})
	if got.Submitted != 5 || got.Batches != 3 || got.SizeFlushes != 1 || got.IdleFlushes != 2 ||
		got.HedgesLaunched != 1 || got.HedgesWon != 1 {
		t.Errorf("pipeTotals = %+v", got)
	}
}
