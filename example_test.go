package bomw_test

import (
	"fmt"
	"time"

	"bomw"
)

// The adaptive scheduler end to end: train, load a model, classify under
// a policy.
func ExampleNewScheduler() {
	sched, err := bomw.NewScheduler(bomw.Config{
		TrainModels: bomw.PaperModels(),
		Batches:     []int{8, 512, 8192},
		Reps:        1,
	})
	if err != nil {
		panic(err)
	}
	if err := sched.LoadModel(bomw.Simple(), 1); err != nil {
		panic(err)
	}
	batch := bomw.Synthesize(bomw.Simple(), 8, 42).Batch(0, 8)
	res, dec, err := sched.Classify("simple", batch, bomw.LowestLatency, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("batch:", dec.Batch, "classes:", len(res.Classes), "gpu warm:", dec.GPUWarm)
	// Output: batch: 8 classes: 8 gpu warm: false
}

// Device profiles are plain values: the simulated GTX 1080 Ti starts at
// idle clocks and warms up with work (the paper's footnote 1).
func ExampleDeviceProfile() {
	gpu := bomw.NewDevice(bomw.NvidiaGTX1080Ti())
	fmt.Printf("cold: warm=%t clock=%.2f\n", gpu.StateAt(0).Warm, gpu.StateAt(0).ClockFrac)
	gpu.Warm(0)
	fmt.Printf("warmed: warm=%t clock=%.2f\n", gpu.StateAt(0).Warm, gpu.StateAt(0).ClockFrac)
	// Output:
	// cold: warm=false clock=0.12
	// warmed: warm=true clock=1.00
}

// Trace generators build the dynamic workloads of §I; traces replay
// identically from their JSON form.
func ExamplePoissonTrace() {
	tr, err := bomw.PoissonTrace(3, 1000, []string{"simple"}, []int{16}, 7)
	if err != nil {
		panic(err)
	}
	for _, r := range tr {
		fmt.Println(r.Model, r.Batch, r.At < time.Second)
	}
	// Output:
	// simple 16 true
	// simple 16 true
	// simple 16 true
}

// The model zoo carries the paper's five workload networks.
func ExamplePaperModels() {
	for _, spec := range bomw.PaperModels() {
		fmt.Println(spec.Name)
	}
	// Output:
	// simple
	// mnist-small
	// mnist-deep
	// mnist-cnn
	// cifar-10
}

// Traces can be analysed before replay: burstiness separates the §I
// workload classes.
func ExampleTrace() {
	steady := bomw.SweepTrace([]string{"simple"}, []int{8, 8, 8, 8}, time.Second)
	fmt.Println("requests:", len(steady), "samples:", steady.TotalSamples())
	// Output: requests: 4 samples: 32
}
