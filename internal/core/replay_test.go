package core_test

// Trace-replay tests of the scheduler. They live in the external test
// package because the replay engine (internal/workload/scenario) imports
// core.

import (
	"testing"
	"time"

	"bomw/internal/core"
	"bomw/internal/device"
	"bomw/internal/models"
	"bomw/internal/trace"
	"bomw/internal/workload/scenario"
)

// replayAdaptive replays tr through the scheduler under pol.
func replayAdaptive(s *core.Scheduler, tr trace.Trace, pol core.Policy) (scenario.ReplayResult, error) {
	return scenario.Replay(scenario.NewSchedulerBackend(s), tr, pol)
}

// replayStatic replays tr pinned to one device.
func replayStatic(s *core.Scheduler, tr trace.Trace, dev string) (scenario.ReplayResult, error) {
	b, err := scenario.NewStaticBackend(s, dev)
	if err != nil {
		return scenario.ReplayResult{}, err
	}
	return scenario.Replay(b, tr, core.BestThroughput)
}

func TestReplayPoissonTrace(t *testing.T) {
	s := core.SharedTestScheduler(t)
	tr, err := trace.Poisson(60, 100, []string{"simple", "mnist-small"}, []int{8, 512, 8192}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replayAdaptive(s, tr, core.BestThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 60 || res.TotalSamples != tr.TotalSamples() {
		t.Fatalf("replay accounting wrong: %+v", res)
	}
	if res.Makespan <= 0 || res.TotalEnergyJ <= 0 || res.AvgLatency() <= 0 {
		t.Fatalf("degenerate replay: %+v", res)
	}
	if res.SamplesPerSecond() <= 0 {
		t.Fatal("throughput must be positive")
	}
}

func TestAdaptiveBeatsWorstStaticAndApproachesBest(t *testing.T) {
	// The "best of many worlds" claim: across a mixed workload the
	// adaptive scheduler should be at least competitive with every
	// static single-device policy on its target metric.
	s := core.SharedTestScheduler(t)
	tr, err := trace.Poisson(80, 200, []string{"simple", "mnist-small", "mnist-cnn"}, []int{2, 64, 2048, 65536}, 2)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := replayAdaptive(s, tr, core.LowestLatency)
	if err != nil {
		t.Fatal(err)
	}
	var bestStatic, worstStatic time.Duration
	for i, dev := range s.Devices() {
		st, err := replayStatic(s, tr, dev)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || st.SumLatency < bestStatic {
			bestStatic = st.SumLatency
		}
		if i == 0 || st.SumLatency > worstStatic {
			worstStatic = st.SumLatency
		}
	}
	if adaptive.SumLatency >= worstStatic {
		t.Fatalf("adaptive (%v) no better than the worst static policy (%v)", adaptive.SumLatency, worstStatic)
	}
	if float64(adaptive.SumLatency) > 1.5*float64(bestStatic) {
		t.Fatalf("adaptive (%v) not within 1.5x of the best static policy (%v)", adaptive.SumLatency, bestStatic)
	}
}

func TestEnergyPolicySavesEnergyVersusAlwaysDGPU(t *testing.T) {
	// §VI: "energy savings up to 10%" — under the energy policy the
	// scheduler must consume less than the always-most-powerful-device
	// baseline on a mixed load.
	s := core.SharedTestScheduler(t)
	tr, err := trace.Diurnal(120, 20, 400, 2*time.Second,
		[]string{"simple", "mnist-small", "mnist-cnn"}, []int{2, 32, 512, 8192}, 3)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := replayAdaptive(s, tr, core.EnergyEfficiency)
	if err != nil {
		t.Fatal(err)
	}
	dgpuOnly, err := replayStatic(s, tr, "GTX 1080 Ti")
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.TotalEnergyJ >= dgpuOnly.TotalEnergyJ {
		t.Fatalf("energy policy used %.1fJ, always-dGPU %.1fJ — no savings",
			adaptive.TotalEnergyJ, dgpuOnly.TotalEnergyJ)
	}
}

func TestReplayStaticUnknownDevice(t *testing.T) {
	s := core.SharedTestScheduler(t)
	if _, err := replayStatic(s, trace.Trace{{At: 0, Model: "simple", Batch: 8}}, "nope"); err == nil {
		t.Fatal("unknown static device accepted")
	}
}

func TestReplayPercentiles(t *testing.T) {
	s := core.SharedTestScheduler(t)
	tr, err := trace.Poisson(50, 100, []string{"simple", "mnist-small"}, []int{8, 8192}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replayAdaptive(s, tr, core.LowestLatency)
	if err != nil {
		t.Fatal(err)
	}
	p50 := res.Percentile(50)
	p99 := res.Percentile(99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("percentiles out of order: p50=%v p99=%v", p50, p99)
	}
	if res.Percentile(100) != res.MaxLatency {
		t.Fatalf("p100 %v != max %v", res.Percentile(100), res.MaxLatency)
	}
	if res.Percentile(-5) != res.Percentile(0) {
		t.Fatal("negative percentile not clamped")
	}
	if (scenario.ReplayResult{}).Percentile(50) != 0 {
		t.Fatal("empty result percentile should be 0")
	}
}

func TestMultipleDiscreteGPUs(t *testing.T) {
	// Device-agnostic scaling: two dGPU instances are just two classes;
	// the overload spill must balance across them.
	gpu2 := device.NvidiaGTX1080Ti()
	gpu2.Name = "GTX 1080 Ti #2"
	devices := []*device.Device{
		device.New(device.IntelCoreI7_8700()),
		device.New(device.NvidiaGTX1080Ti()),
		device.New(gpu2),
	}
	s, err := core.New(core.Config{
		Devices:     devices,
		TrainModels: models.PaperModels(),
		Batches:     []int{512, 8192, 65536},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadModel(models.MnistSmall(), 1); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Poisson(60, 500, []string{"mnist-small"}, []int{32768, 65536}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replayAdaptive(s, tr, core.BestThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDevice["GTX 1080 Ti"] == 0 || res.PerDevice["GTX 1080 Ti #2"] == 0 {
		t.Fatalf("load did not spread across both dGPUs: %v", res.PerDevice)
	}
}

func TestReplayRoutesAroundInterference(t *testing.T) {
	// End to end: a replay with the preferred device contended should
	// end up cheaper than naively pinning to that device.
	s := core.SharedTestScheduler(t)
	tr, err := trace.Poisson(60, 50, []string{"mnist-small"}, []int{4096, 32768}, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline replay to find the dominant device.
	base, err := replayAdaptive(s, tr, core.LowestLatency)
	if err != nil {
		t.Fatal(err)
	}
	dominant, max := "", 0
	for dev, n := range base.PerDevice {
		if n > max {
			dominant, max = dev, n
		}
	}
	// Contend it. Replay resets devices, so apply slowdown inside a
	// wrapper replay: set after reset via fresh replay with prepared
	// devices — simplest is to re-run Select/Estimate manually.
	s.ResetDevices()
	for _, d := range s.TestDevices() {
		if d.Name() == dominant {
			d.SetSlowdown(8)
		}
	}
	var adaptiveSum time.Duration
	movedAway := 0
	for _, req := range tr {
		res, dec, err := s.Estimate(req.Model, req.Batch, core.LowestLatency, req.At)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe(dec, res); err != nil {
			t.Fatal(err)
		}
		adaptiveSum += res.Latency()
		if dec.Device != dominant {
			movedAway++
		}
	}
	if movedAway == 0 {
		t.Fatal("scheduler never adapted to the contended device")
	}
	// Pinned-to-contended baseline for the same trace.
	for _, d := range s.TestDevices() {
		d.Reset()
		if d.Name() == dominant {
			d.SetSlowdown(8)
		}
	}
	var pinnedSum time.Duration
	for _, req := range tr {
		res, err := s.Runtime().Estimate(dominant, req.Model, req.Batch, req.At)
		if err != nil {
			t.Fatal(err)
		}
		pinnedSum += res.Latency()
	}
	if adaptiveSum >= pinnedSum {
		t.Fatalf("adaptive (%v) did not beat pinned-to-contended (%v)", adaptiveSum, pinnedSum)
	}
}
