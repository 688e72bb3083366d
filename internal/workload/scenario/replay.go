package scenario

import (
	"fmt"
	"math"
	"slices"
	"time"

	"bomw/internal/core"
	"bomw/internal/trace"
)

// ReplayResult aggregates the completions of one run at full
// time.Duration and float precision. Every run mode folds into it — the
// trace replay, the stream and offline loops, and the live modes — and
// Report is derived from it.
type ReplayResult struct {
	Requests     int // completed requests
	TotalSamples int64
	Makespan     time.Duration // completion of the last request
	TotalEnergyJ float64
	SumLatency   time.Duration
	MaxLatency   time.Duration
	PerDevice    map[string]int
	latencies    []time.Duration
}

// Record folds one completed request into the aggregate: lat is its
// arrival-to-completion latency, samples its batch size and ex its
// outcome.
func (r *ReplayResult) Record(lat time.Duration, samples int, ex Exec) {
	r.Requests++
	r.TotalSamples += int64(samples)
	r.TotalEnergyJ += ex.EnergyJ
	r.SumLatency += lat
	if lat > r.MaxLatency {
		r.MaxLatency = lat
	}
	if ex.Completed > r.Makespan {
		r.Makespan = ex.Completed
	}
	if ex.Device != "" {
		if r.PerDevice == nil {
			r.PerDevice = map[string]int{}
		}
		r.PerDevice[ex.Device]++
	}
	r.latencies = append(r.latencies, lat)
}

// AvgLatency returns the mean request latency.
func (r ReplayResult) AvgLatency() time.Duration {
	if r.Requests == 0 {
		return 0
	}
	return r.SumLatency / time.Duration(r.Requests)
}

// Percentile returns the p-th latency percentile (p in [0,100], clamped)
// by the nearest-rank convention; tail latency is what the paper's
// latency policy protects.
func (r ReplayResult) Percentile(p float64) time.Duration {
	return nearestRank(r.sortedLatencies(), p)
}

// SamplesPerSecond returns sustained throughput over the makespan.
func (r ReplayResult) SamplesPerSecond() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.TotalSamples) / r.Makespan.Seconds()
}

// within counts the recorded requests that finished inside slo.
func (r ReplayResult) within(slo time.Duration) int {
	n := 0
	for _, l := range r.latencies {
		if l <= slo {
			n++
		}
	}
	return n
}

func (r ReplayResult) sortedLatencies() []time.Duration {
	sorted := slices.Clone(r.latencies)
	slices.Sort(sorted)
	return sorted
}

// nearestRank returns the p-th percentile of an ascending population:
// the ceil(p/100·n)-th smallest value, so p=0 is the minimum and p=100
// the maximum. An empty population answers 0.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	p = math.Max(0, math.Min(100, p))
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Replay is the virtual-clock replay engine: it resets b, runs every
// request of tr at its arrival time req.At under pol, and aggregates the
// completions. Latency is arrival to completion, so queueing behind a
// busy device counts. Run's scenarios drive the same loop.
func Replay(b Backend, tr trace.Trace, pol core.Policy) (ReplayResult, error) {
	b.Reset()
	return replay(b, tr, pol)
}

// replay is Replay without the reset, for callers that already reset b.
func replay(b Backend, tr trace.Trace, pol core.Policy) (ReplayResult, error) {
	res := ReplayResult{latencies: make([]time.Duration, 0, len(tr))}
	for i, req := range tr {
		ex, err := b.Run(req.Model, req.Batch, pol, req.At)
		if err != nil {
			return ReplayResult{}, fmt.Errorf("scenario: replay request %d at %v: %w", i, req.At, err)
		}
		res.Record(ex.Completed-req.At, req.Batch, ex)
	}
	return res, nil
}

// StaticBackend pins every query to one device, bypassing the scheduler
// — the "always use device X" baselines the paper's adaptive scheduler
// is compared against (e.g. always-dGPU, the most powerful device).
type StaticBackend struct {
	sched  *core.Scheduler
	device string
}

// NewStaticBackend pins queries on s to the named device.
func NewStaticBackend(s *core.Scheduler, device string) (*StaticBackend, error) {
	if !slices.Contains(s.Devices(), device) {
		return nil, fmt.Errorf("scenario: unknown device %q", device)
	}
	return &StaticBackend{sched: s, device: device}, nil
}

// Name implements Backend.
func (b *StaticBackend) Name() string { return "static:" + b.device }

// Run implements Backend. The policy is ignored: the device is fixed.
func (b *StaticBackend) Run(model string, batch int, _ core.Policy, at time.Duration) (Exec, error) {
	res, err := b.sched.Runtime().Estimate(b.device, model, batch, at)
	if err != nil {
		return Exec{}, err
	}
	return Exec{Completed: res.Completed, EnergyJ: res.EnergyJ, Device: b.device}, nil
}

// Reset implements Backend.
func (b *StaticBackend) Reset() { b.sched.ResetDevices() }
