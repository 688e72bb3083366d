// Energy saver: diurnal load with the energy-efficiency policy.
//
// §I observes that "selecting a low-end device in cases where the data
// load is low would have significantly lower energy requirements". This
// example replays a diurnal request pattern — nightly valleys of small
// batches, daily peaks of large ones — under the energy-efficiency
// policy and reports the Joules saved against static single-device
// deployments, plus where the scheduler routed the load. It also samples
// the simulated nvidia-smi/PCM power meters (§III-A1) over the replay.
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
	names := []string{"simple", "mnist-small", "mnist-cnn"}
	for _, name := range names {
		spec, err := bomw.ModelByName(name)
		if err != nil {
			log.Fatal(err)
		}
		if err := sched.LoadModel(spec, 1); err != nil {
			log.Fatal(err)
		}
	}

	// Two simulated "days" of 5 s each: rate swings 10..300 req/s, batch
	// sizes follow the load.
	tr, err := bomw.DiurnalTrace(600, 10, 300, 5*time.Second, names,
		[]int{2, 16, 128, 1024, 8192}, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diurnal trace: %d requests, %d samples, %v of virtual time\n\n",
		len(tr), tr.TotalSamples(), tr.Duration().Round(time.Millisecond))

	adaptive, err := bomw.Replay(bomw.NewSchedulerBackend(sched), tr, bomw.EnergyEfficiency)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s energy=%9.1fJ avg-latency=%-12v devices=%v\n",
		"adaptive energy policy", adaptive.TotalEnergyJ,
		adaptive.AvgLatency().Round(time.Microsecond), adaptive.PerDevice)

	for _, dev := range sched.Devices() {
		static, err := bomw.NewStaticBackend(sched, dev)
		if err != nil {
			log.Fatal(err)
		}
		st, err := bomw.Replay(static, tr, bomw.EnergyEfficiency)
		if err != nil {
			log.Fatal(err)
		}
		saving := 100 * (1 - adaptive.TotalEnergyJ/st.TotalEnergyJ)
		fmt.Printf("%-22s energy=%9.1fJ avg-latency=%-12v (adaptive saves %5.1f%%)\n",
			"always "+dev, st.TotalEnergyJ, st.AvgLatency().Round(time.Microsecond), saving)
	}

	// The throughput policy on the same trace burns more Joules — the
	// policies genuinely trade off.
	perf, err := bomw.Replay(bomw.NewSchedulerBackend(sched), tr, bomw.BestThroughput)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame trace under best-throughput: %.1f J (energy policy saved %.1f%%)\n",
		perf.TotalEnergyJ, 100*(1-adaptive.TotalEnergyJ/perf.TotalEnergyJ))
}
