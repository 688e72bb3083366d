package power

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"bomw/internal/core"
	"bomw/internal/device"
	"bomw/internal/models"
	"bomw/internal/opencl"
	"bomw/internal/trace"
	"bomw/internal/workload/scenario"
)

func monitoredRuntime(t *testing.T) (*opencl.Runtime, *Monitor) {
	t.Helper()
	rt, err := opencl.NewRuntime(
		device.New(device.IntelCoreI7_8700()),
		device.New(device.NvidiaGTX1080Ti()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadModel(models.MnistSmall().MustBuild(1)); err != nil {
		t.Fatal(err)
	}
	return rt, Attach(rt)
}

func TestMonitorRecordsExecutions(t *testing.T) {
	rt, m := monitoredRuntime(t)
	res, err := rt.Estimate("GTX 1080 Ti", "mnist-small", 8192, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid := res.Submitted + res.Latency()/2
	if p := m.Rec.PowerAt("GTX 1080 Ti", mid); p <= device.NvidiaGTX1080Ti().IdleWatts {
		t.Fatalf("mid-run board power %g should exceed idle", p)
	}
	after := res.Completed + time.Second
	if p := m.Rec.PowerAt("GTX 1080 Ti", after); p != device.NvidiaGTX1080Ti().IdleWatts {
		t.Fatalf("post-run power %g should be the idle floor", p)
	}
	smi := m.SMI("GTX 1080 Ti", 250)
	if q := smi.Query(mid); !strings.Contains(q, "/ 250W") {
		t.Fatalf("smi query = %q", q)
	}
	pcm := m.PCM("i7-8700 CPU", "")
	if pcm.PackagePower(mid) <= 0 {
		t.Fatal("PCM should read the CPU idle floor at least")
	}
}

func TestMonitorDetach(t *testing.T) {
	rt, m := monitoredRuntime(t)
	rt.SetObserver(nil)
	res, err := rt.Estimate("GTX 1080 Ti", "mnist-small", 8192, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid := res.Submitted + res.Latency()/2
	if p := m.Rec.PowerAt("GTX 1080 Ti", mid); p != device.NvidiaGTX1080Ti().IdleWatts {
		t.Fatalf("detached monitor recorded activity: %g W", p)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	rt, m := monitoredRuntime(t)
	res, err := rt.Estimate("GTX 1080 Ti", "mnist-small", 32768, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteSeriesCSV(&buf, 0, res.Completed, res.Latency()/16); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 10 {
		t.Fatalf("timeline too short: %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_us,") || !strings.Contains(lines[0], "GTX 1080 Ti") {
		t.Fatalf("timeline header = %q", lines[0])
	}
	if err := m.WriteSeriesCSV(&buf, 0, time.Second, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestMonitorOverSchedulerReplay(t *testing.T) {
	// End-to-end instrumentation: attach the monitor to a scheduler's
	// runtime, replay a trace, and verify the power trace shows device
	// activity exactly where executions happened.
	sched, err := core.New(core.Config{
		TrainModels: models.PaperModels(),
		Batches:     []int{8, 8192, 65536},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.LoadModel(models.MnistSmall(), 1); err != nil {
		t.Fatal(err)
	}
	mon := Attach(sched.Runtime())
	tr, err := trace.Poisson(20, 100, []string{"mnist-small"}, []int{8192, 65536}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Replay(scenario.NewSchedulerBackend(sched), tr, core.BestThroughput)
	if err != nil {
		t.Fatal(err)
	}
	// Some device must have drawn above-idle power during the replay.
	active := false
	for _, name := range sched.Devices() {
		series := mon.Rec.Series(name, 0, res.Makespan, res.Makespan/200)
		idle := mon.Rec.PowerAt(name, res.Makespan+time.Hour)
		for _, s := range series {
			if s.Watts > idle+1 {
				active = true
			}
		}
	}
	if !active {
		t.Fatal("monitor saw no device activity over a 20-request replay")
	}
	// Integrated energy over the whole span must be positive and at
	// least the active energy the replay reported for one device.
	var total float64
	for _, name := range sched.Devices() {
		total += mon.Rec.EnergyBetween(name, 0, res.Makespan)
	}
	if total <= 0 {
		t.Fatal("integrated energy non-positive")
	}
}
