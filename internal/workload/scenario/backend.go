package scenario

import (
	"fmt"
	"time"

	"bomw/internal/core"
)

// Exec is one query's outcome on a virtual-mode backend.
type Exec struct {
	Completed time.Duration // virtual completion time
	EnergyJ   float64
	Device    string
}

// Backend executes one query at a virtual timestamp. Implementations
// must be deterministic: the same call sequence after Reset must yield
// the same Execs, which is what makes virtual-mode reports golden-able.
type Backend interface {
	// Name tags reports ("node", "fleet:4").
	Name() string
	// Run schedules one model×batch query arriving at the virtual time
	// `at` and returns its completion. Queueing is represented by the
	// device busy horizon: a query arriving while the chosen device is
	// busy completes later.
	Run(model string, batch int, pol core.Policy, at time.Duration) (Exec, error)
	// Reset restores pristine device state so consecutive scenario runs
	// on one backend are independent.
	Reset()
}

// SchedulerBackend runs queries on one node's scheduler via the
// Estimate/Observe path.
type SchedulerBackend struct {
	sched *core.Scheduler
}

// NewSchedulerBackend wraps a single node.
func NewSchedulerBackend(s *core.Scheduler) *SchedulerBackend {
	return &SchedulerBackend{sched: s}
}

// Name implements Backend.
func (b *SchedulerBackend) Name() string { return "node" }

// Run implements Backend.
func (b *SchedulerBackend) Run(model string, batch int, pol core.Policy, at time.Duration) (Exec, error) {
	res, dec, err := b.sched.Estimate(model, batch, pol, at)
	if err != nil {
		return Exec{}, err
	}
	if err := b.sched.Observe(dec, res); err != nil {
		return Exec{}, err
	}
	return Exec{Completed: res.Completed, EnergyJ: res.EnergyJ, Device: dec.Device}, nil
}

// Reset implements Backend.
func (b *SchedulerBackend) Reset() { b.sched.ResetDevices() }

// FleetBackend spreads queries over N scheduler replicas with
// least-outstanding-work routing: each query goes to the node whose
// busy horizon is lowest — the virtual-clock analogue of the cluster
// tier's least-loaded policy, but sequential and deterministic (ties
// break to the lowest node index).
type FleetBackend struct {
	nodes   []*core.Scheduler
	horizon []time.Duration
}

// NewFleetBackend builds an n-node fleet from a template scheduler.
// Node 0 reuses the template; nodes 1..n-1 are Replica copies, the same
// construction cluster.Build uses.
func NewFleetBackend(template *core.Scheduler, n int, seed int64) (*FleetBackend, error) {
	if template == nil {
		return nil, fmt.Errorf("scenario: fleet backend needs a template scheduler")
	}
	if n < 1 {
		return nil, fmt.Errorf("scenario: fleet backend needs at least 1 node, got %d", n)
	}
	nodes := []*core.Scheduler{template}
	for i := 1; i < n; i++ {
		rep, err := template.Replica(seed + int64(i))
		if err != nil {
			return nil, fmt.Errorf("scenario: replicating node %d: %w", i, err)
		}
		nodes = append(nodes, rep)
	}
	return &FleetBackend{nodes: nodes, horizon: make([]time.Duration, n)}, nil
}

// Name implements Backend.
func (b *FleetBackend) Name() string { return fmt.Sprintf("fleet:%d", len(b.nodes)) }

// Run implements Backend.
func (b *FleetBackend) Run(model string, batch int, pol core.Policy, at time.Duration) (Exec, error) {
	best := 0
	for i := 1; i < len(b.nodes); i++ {
		if b.horizon[i] < b.horizon[best] {
			best = i
		}
	}
	res, dec, err := b.nodes[best].Estimate(model, batch, pol, at)
	if err != nil {
		return Exec{}, err
	}
	if err := b.nodes[best].Observe(dec, res); err != nil {
		return Exec{}, err
	}
	if res.Completed > b.horizon[best] {
		b.horizon[best] = res.Completed
	}
	return Exec{
		Completed: res.Completed,
		EnergyJ:   res.EnergyJ,
		Device:    fmt.Sprintf("n%d/%s", best, dec.Device),
	}, nil
}

// Reset implements Backend.
func (b *FleetBackend) Reset() {
	for i, n := range b.nodes {
		n.ResetDevices()
		b.horizon[i] = 0
	}
}
