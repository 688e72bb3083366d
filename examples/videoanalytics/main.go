// Video analytics: bursty object-classification traffic.
//
// The paper motivates the scheduler with streaming workloads whose load
// fluctuates at run time (§I: "data bursts, application overloads and
// system changes"). This example models a video-analytics pipeline:
// motion events trigger bursts of large CIFAR-shaped classification
// batches on top of a low-rate background stream of MNIST-shaped
// thumbnails. It compares the adaptive scheduler against every static
// single-device policy on total latency, and shows the overload
// spill-over in action.
package main

import (
	"fmt"
	"log"
	"time"

	"bomw"
)

func main() {
	sched, err := bomw.NewScheduler(bomw.Config{TrainModels: bomw.AllModels()})
	if err != nil {
		log.Fatal(err)
	}
	for _, spec := range []*bomw.Spec{bomw.MnistCNN(), bomw.Cifar10()} {
		if err := sched.LoadModel(spec, 1); err != nil {
			log.Fatal(err)
		}
	}

	// Background thumbnails at 20 req/s; motion bursts at 200 req/s of
	// big frames for 300 ms out of every 2 s.
	tr, err := bomw.BurstTrace(400, 20, 200, 2*time.Second, 300*time.Millisecond,
		[]string{"mnist-cnn", "cifar-10"},
		[]int{1, 4, 16},        // background: near-real-time small batches
		[]int{512, 2048, 8192}, // bursts: buffered frame batches
		7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("video trace: %d requests, %d frames, %v of virtual time\n",
		len(tr), tr.TotalSamples(), tr.Duration().Round(time.Millisecond))

	spillsBefore := sched.Stats().Spills
	adaptive, err := bomw.Replay(bomw.NewSchedulerBackend(sched), tr, bomw.LowestLatency)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-22s avg-latency=%-14v max=%-14v energy=%8.1fJ spills=%d devices=%v\n",
		"adaptive (paper)", adaptive.AvgLatency().Round(time.Microsecond),
		adaptive.MaxLatency.Round(time.Microsecond), adaptive.TotalEnergyJ,
		sched.Stats().Spills-spillsBefore, adaptive.PerDevice)

	for _, dev := range sched.Devices() {
		static, err := bomw.NewStaticBackend(sched, dev)
		if err != nil {
			log.Fatal(err)
		}
		st, err := bomw.Replay(static, tr, bomw.LowestLatency)
		if err != nil {
			log.Fatal(err)
		}
		verdict := ""
		if st.SumLatency > adaptive.SumLatency {
			verdict = fmt.Sprintf("  (adaptive is %.1fx better)",
				float64(st.SumLatency)/float64(adaptive.SumLatency))
		}
		fmt.Printf("%-22s avg-latency=%-14v max=%-14v energy=%8.1fJ%s\n",
			"always "+dev, st.AvgLatency().Round(time.Microsecond),
			st.MaxLatency.Round(time.Microsecond), st.TotalEnergyJ, verdict)
	}
}
