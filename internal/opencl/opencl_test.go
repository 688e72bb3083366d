package opencl

import (
	"strings"
	"testing"
	"time"

	"bomw/internal/device"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/tensor"
)

func testDevices() []*device.Device {
	return []*device.Device{
		device.New(device.IntelCoreI7_8700()),
		device.New(device.IntelUHD630()),
		device.New(device.NvidiaGTX1080Ti()),
	}
}

func TestDiscoverPlatforms(t *testing.T) {
	ps := DiscoverPlatforms(testDevices()...)
	if len(ps) != 2 {
		t.Fatalf("platforms = %d, want 2 (Intel + NVIDIA)", len(ps))
	}
	if ps[0].Name != "Intel OpenCL" || len(ps[0].Devices) != 2 {
		t.Fatalf("Intel platform wrong: %+v", ps[0])
	}
	if ps[1].Name != "NVIDIA CUDA" || len(ps[1].Devices) != 1 {
		t.Fatalf("NVIDIA platform wrong: %+v", ps[1])
	}
	// An accelerator gets the generic platform (device-agnostic claim).
	npu := device.New(device.Profile{Name: "npu", Kind: device.Accelerator, PeakGFLOPS: 100,
		ParallelWidth: 64, WorkGroupSize: 64, MemBandwidthGBs: 10, CacheBytes: 1 << 20,
		WeightReuse: 4, IdleWatts: 1, ActiveWatts: 5})
	ps = DiscoverPlatforms(npu)
	if len(ps) != 1 || ps[0].Name != "Generic Accelerators" {
		t.Fatalf("accelerator platform wrong: %+v", ps)
	}
}

func TestClDevicePoolsFollowPaperWorkGroups(t *testing.T) {
	for _, d := range testDevices() {
		cd := NewClDevice(d)
		want := d.Profile().WorkGroupSize
		if cd.Pool.GroupSize() != want {
			t.Fatalf("%s: pool group size %d, want %d (§IV-B)", d.Name(), cd.Pool.GroupSize(), want)
		}
	}
}

func TestCreateContextValidation(t *testing.T) {
	if _, err := CreateContext(); err == nil {
		t.Fatal("empty context accepted")
	}
	ctx, err := CreateContext(NewClDevice(testDevices()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.DeviceByName("nope"); err == nil {
		t.Fatal("unknown device accepted")
	}
	if d, err := ctx.DeviceByName("i7-8700 CPU"); err != nil || d == nil {
		t.Fatalf("DeviceByName failed: %v", err)
	}
}

func TestBuildProgramFoldsFlatten(t *testing.T) {
	net := models.MnistCNN().MustBuild(1)
	prog, err := BuildProgram(net)
	if err != nil {
		t.Fatal(err)
	}
	// conv, pool, conv, pool, dense, dense = 6 kernels; flatten folded.
	if len(prog.Kernels) != 6 {
		t.Fatalf("kernels = %d, want 6", len(prog.Kernels))
	}
	for _, k := range prog.Kernels {
		if k.Workload.Kernels != 1 {
			t.Fatalf("kernel %s has workload kernel count %d", k.Name, k.Workload.Kernels)
		}
	}
}

func TestKernelPipelineMatchesDirectForward(t *testing.T) {
	for _, spec := range []string{"simple", "mnist-cnn"} {
		s, err := models.ByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		net := s.MustBuild(7)
		prog, err := BuildProgram(net)
		if err != nil {
			t.Fatal(err)
		}
		ds := models.Synthesize(s, 6, 3)
		in := ds.Batch(0, 6)
		want := net.Forward(tensor.Default, in.Clone())

		dev := NewClDevice(device.New(device.IntelCoreI7_8700()))
		q := NewQueue(dev)
		x := in
		for _, k := range prog.Kernels {
			x, _ = q.EnqueueNDRangeKernel(0, k, x)
		}
		if !x.ApproxEqual(want, 1e-5) {
			t.Fatalf("%s: pipeline output differs from direct forward", spec)
		}
	}
}

func TestRuntimeClassifyProducesRealResults(t *testing.T) {
	rt, err := NewRuntime(testDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	spec := models.Simple()
	net := spec.MustBuild(5)
	if err := rt.LoadModel(net); err != nil {
		t.Fatal(err)
	}
	ds := models.Synthesize(spec, 16, 2)
	in := ds.Batch(0, 16)

	var outputs []*tensor.Tensor
	for _, d := range rt.Devices() {
		res, err := rt.Classify(d.Name(), "simple", in.Clone(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency() <= 0 || res.EnergyJ <= 0 {
			t.Fatalf("%s: degenerate result %+v", d.Name(), res)
		}
		if len(res.Classes) != 16 {
			t.Fatalf("%s: classes = %d", d.Name(), len(res.Classes))
		}
		outputs = append(outputs, res.Output)
	}
	// Every device computes the same real math.
	for i := 1; i < len(outputs); i++ {
		if !outputs[0].ApproxEqual(outputs[i], 1e-5) {
			t.Fatal("devices disagree on classification output")
		}
	}
}

func TestRuntimeEstimateMatchesClassifyTiming(t *testing.T) {
	mk := func() *Runtime {
		rt, err := NewRuntime(testDevices()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.LoadModel(models.Simple().MustBuild(5)); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	ds := models.Synthesize(models.Simple(), 64, 2)
	in := ds.Batch(0, 64)
	for _, devName := range []string{"i7-8700 CPU", "GTX 1080 Ti"} {
		a, err := mk().Classify(devName, "simple", in.Clone(), 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mk().Estimate(devName, "simple", 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Latency() != b.Latency() {
			t.Fatalf("%s: estimate %v != classify %v", devName, b.Latency(), a.Latency())
		}
		if a.EnergyJ != b.EnergyJ {
			t.Fatalf("%s: estimate energy %g != classify %g", devName, b.EnergyJ, a.EnergyJ)
		}
		if b.Output != nil || b.Classes != nil {
			t.Fatal("estimate should not produce outputs")
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	rt, _ := NewRuntime(testDevices()...)
	net := models.Simple().MustBuild(1)
	if err := rt.LoadModel(net); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadModel(net); err == nil {
		t.Fatal("duplicate model load accepted")
	}
	if _, err := rt.Classify("nope", "simple", tensor.New(1, 4), 0); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, err := rt.Classify("i7-8700 CPU", "nope", tensor.New(1, 4), 0); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := rt.Classify("i7-8700 CPU", "simple", tensor.New(1, 5), 0); err == nil {
		t.Fatal("wrong input shape accepted")
	}
	if _, err := rt.Estimate("i7-8700 CPU", "simple", 0, 0); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := rt.State("nope", 0); err == nil {
		t.Fatal("unknown device state probe accepted")
	}
	if len(rt.Models()) != 1 {
		t.Fatalf("Models = %v", rt.Models())
	}
}

func TestRuntimeStateProbe(t *testing.T) {
	sims := testDevices()
	rt, _ := NewRuntime(sims...)
	st, err := rt.State("GTX 1080 Ti", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Warm {
		t.Fatal("fresh dGPU should be cold")
	}
	sims[2].Warm(0)
	st, _ = rt.State("GTX 1080 Ti", 0)
	if !st.Warm {
		t.Fatal("warmed dGPU should probe warm")
	}
}

func TestQueueEventsProfiling(t *testing.T) {
	rt, _ := NewRuntime(testDevices()...)
	if err := rt.LoadModel(models.MnistCNN().MustBuild(1)); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Estimate("GTX 1080 Ti", "mnist-cnn", 256, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// write + 6 kernels + read = 8 events, all in order.
	if len(res.Events) != 8 {
		t.Fatalf("events = %d, want 8", len(res.Events))
	}
	if res.Events[0].Name != "clEnqueueWriteBuffer" || res.Events[7].Name != "clEnqueueReadBuffer" {
		t.Fatalf("event order wrong: %s … %s", res.Events[0].Name, res.Events[7].Name)
	}
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i].Start < res.Events[i-1].End {
			t.Fatalf("event %d starts before predecessor ends", i)
		}
	}
	if res.Submitted != time.Millisecond || res.Completed <= res.Submitted {
		t.Fatalf("submit/complete wrong: %v/%v", res.Submitted, res.Completed)
	}
	// Unified devices log a map instead of a write and skip the read.
	res2, _ := rt.Estimate("i7-8700 CPU", "mnist-cnn", 256, 0)
	if res2.Events[0].Name != "clEnqueueMapBuffer" || len(res2.Events) != 7 {
		t.Fatalf("unified event log wrong: %d events, first %s", len(res2.Events), res2.Events[0].Name)
	}
	if d := res2.Events[0].Duration(); d != 0 {
		t.Fatalf("map on unified memory took %v, want zero-copy", d)
	}
	if d := res.Events[0].Duration(); d <= 0 {
		t.Fatalf("write to the discrete GPU took %v, want a PCIe transfer", d)
	}
}

func TestThroughputGbpsHelper(t *testing.T) {
	r := &Result{Batch: 1000, Submitted: 0, Completed: time.Millisecond}
	if g := r.ThroughputGbps(125); g < 0.999 || g > 1.001 {
		t.Fatalf("ThroughputGbps = %g", g)
	}
	if (&Result{}).ThroughputGbps(125) != 0 {
		t.Fatal("zero-latency throughput should be 0")
	}
}

func TestDeviceInfoQueries(t *testing.T) {
	for _, d := range testDevices() {
		cd := NewClDevice(d)
		info := cd.Info()
		if info.Name != d.Name() {
			t.Fatalf("info name %q", info.Name)
		}
		if info.MaxWorkGroupSize != d.Profile().WorkGroupSize {
			t.Fatal("work-group size mismatch")
		}
		if info.MaxComputeUnits <= 0 || info.GlobalMemBytes <= 0 {
			t.Fatalf("degenerate info: %+v", info)
		}
		s := info.String()
		if !strings.Contains(s, "CL_DEVICE_TYPE") || !strings.Contains(s, info.Vendor) {
			t.Fatalf("clinfo rendering wrong:\n%s", s)
		}
	}
	// CPU local memory maps to global (§IV-B): reported as zero.
	cpu := NewClDevice(device.New(device.IntelCoreI7_8700()))
	if cpu.Info().LocalMemBytes != 0 {
		t.Fatal("CPU should expose no dedicated local memory")
	}
	if !cpu.Info().HostUnifiedMemory {
		t.Fatal("CPU must report unified memory")
	}
	dgpu := NewClDevice(device.New(device.NvidiaGTX1080Ti()))
	if dgpu.Info().LocalMemBytes == 0 || dgpu.Info().HostUnifiedMemory {
		t.Fatal("dGPU must report local memory and non-unified memory")
	}
	if dgpu.Info().Type != "CL_DEVICE_TYPE_GPU" {
		t.Fatal("dGPU type wrong")
	}
	// Accelerators get the generic treatment.
	npu := NewClDevice(device.New(device.Profile{Name: "npu", Kind: device.Accelerator,
		ParallelWidth: 128, WorkGroupSize: 64}))
	if npu.Info().Type != "CL_DEVICE_TYPE_ACCELERATOR" || npu.Info().MaxComputeUnits < 1 {
		t.Fatalf("accelerator info wrong: %+v", npu.Info())
	}
}

func TestKernelSourcesDeclareEntryPoints(t *testing.T) {
	for _, c := range []struct{ src, entry string }{
		{FFNNKernelSource, "ffnn_layer"},
		{CNNKernelSource, "conv2d"},
		{CNNKernelSource, "maxpool2d"},
	} {
		if !strings.Contains(c.src, "__kernel void "+c.entry+"(") {
			t.Fatalf("source does not declare __kernel %s", c.entry)
		}
	}
	// The paper's design notes must be reflected in the source text.
	if !strings.Contains(FFNNKernelSource, "float4") {
		t.Fatal("FFNN kernel should use float4 row-major loads (§IV-B)")
	}
	if !strings.Contains(CNNKernelSource, "LOCAL_STAGE") {
		t.Fatal("CNN kernel should stage local memory only on the dGPU (§IV-B)")
	}
}

func TestRuntimeRunsOptimizedNetworks(t *testing.T) {
	// Regression: sparse and fp16 layer types are not the built-in
	// Dense/Conv/MaxPool, and must still compile into kernel pipelines.
	spec := models.Simple()
	net := spec.MustBuild(9)
	if _, err := nn.Prune(net, 0.5); err != nil {
		t.Fatal(err)
	}
	sparse := nn.SparsifyNetwork(net)
	half := nn.HalveNetwork(net)
	rt, err := NewRuntime(testDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	ds := models.Synthesize(spec, 8, 4)
	for _, variant := range []*nn.Network{sparse, half} {
		if err := rt.LoadModel(variant); err != nil {
			t.Fatalf("%s: %v", variant.Name(), err)
		}
		res, err := rt.Classify("i7-8700 CPU", variant.Name(), ds.Batch(0, 8), 0)
		if err != nil {
			t.Fatalf("%s: %v", variant.Name(), err)
		}
		if len(res.Classes) != 8 || res.Latency() <= 0 {
			t.Fatalf("%s: degenerate result", variant.Name())
		}
	}
	// A heavily pruned compute-bound model must be charged less than its
	// dense original (fresh devices so no queueing skews the numbers).
	big := models.MnistSmall().MustBuild(9)
	if _, err := nn.Prune(big, 0.9); err != nil {
		t.Fatal(err)
	}
	bigSparse := nn.SparsifyNetwork(big)
	rt2, err := NewRuntime(device.New(device.IntelCoreI7_8700()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.LoadModel(big); err != nil {
		t.Fatal(err)
	}
	if err := rt2.LoadModel(bigSparse); err != nil {
		t.Fatal(err)
	}
	dense, err := rt2.Estimate("i7-8700 CPU", big.Name(), 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rt2.Estimate("i7-8700 CPU", bigSparse.Name(), 4096, dense.Completed)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Latency() >= dense.Latency() {
		t.Fatalf("90%%-pruned mnist-small (%v) not cheaper than dense (%v)", sp.Latency(), dense.Latency())
	}
}
