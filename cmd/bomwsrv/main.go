// Command bomwsrv serves the adaptive scheduler over HTTP — the
// production face of the paper's system. It trains (or loads) the
// scheduler, pre-loads the paper's workload models, and listens for
// classification requests, serving them through the concurrent pipeline
// (admission → live batching → per-device worker queues). SIGINT/SIGTERM
// shut down gracefully: the listener stops, in-flight requests drain,
// and open batches flush before the process exits.
//
// Usage:
//
//	bomwsrv -addr :8080
//	bomwsrv -addr :8080 -load sched.state -window 2ms -max-batch 64
//	bomwsrv -addr :8080 -default-slo 50ms
//	bomwsrv -addr :8080 -nodes 64 -route least-loaded
//
//	curl -s localhost:8080/v1/devices
//	curl -s localhost:8080/v1/pipeline
//	curl -s -X POST localhost:8080/v1/classify \
//	  -d '{"model":"simple","policy":"lowest-latency","samples":[[5.1,3.5,1.4,0.2]]}'
//	curl -s -X POST localhost:8080/v1/classify \
//	  -d '{"model":"simple","samples":[[5.1,3.5,1.4,0.2]],"timeout_ms":50}'
//
// Deadlines: a request's timeout_ms (or -default-slo when absent) is its
// latency SLO. Admission control rejects requests predicted to miss it
// (504, reason deadline_infeasible); admitted requests whose SLO passes
// before execution are culled without touching a device (504, reason
// deadline_exceeded). Tail tolerance comes from -node-hedge (fleet
// mode, below), which races a backup node, and from device failover,
// which retries a failed batch on the next-ranked device.
//
// Fault injection (failure-domain drills): -fault scripts deterministic
// device faults on the virtual clock (wall time since start). The spec
// is semicolon-separated per-device clauses, each a comma-separated list
// of faults:
//
//	bomwsrv -fault 'GTX 1080 Ti=err:0.05'                   5% execution errors
//	bomwsrv -fault 'UHD Graphics 630=spike:0.2:4'           20% of runs ×4 slower
//	bomwsrv -fault 'i7-8700 CPU=outage:30s-45s,err:0.01'    full outage window + errors
//	bomwsrv -fault 'A=err:1;B=spike:0.5:8' -fault-seed 7    two devices, seeded draws
//
// Faulted batches fail over to the next-ranked device; persistent
// failures quarantine the device (watch /v1/devices and /v1/stats) until
// a recovery probe re-admits it.
//
// Fleet mode: -nodes N replicates the trained scheduler into N serving
// nodes (shared classifiers, fresh devices) behind the -route policy
// (round-robin, least-loaded, model-affinity or weighted-scoring).
// Requests route per the policy with automatic failover; /v1/cluster and
// /v1/nodes expose fleet stats and node lifecycle (drain/evict/
// readmit/kill). -fault-nodes picks which nodes the -fault spec arms
// (default node 0; "all" arms every node with per-node seeds), so a
// fleet can drill node-level failure:
//
//	bomwsrv -nodes 8 -route least-loaded \
//	  -fault 'GTX 1080 Ti=outage:30s-5m' -fault-nodes 0,3
//
// Fleet resilience: -chaos scripts deterministic *node-level* faults on
// the virtual clock — seeded crash windows (flapping restarts) and
// always-slow nodes — and the resilience flags turn on the counters
// that absorb them:
//
//	bomwsrv -nodes 16 -route least-loaded \
//	  -chaos 'crash:2:3,slow:2:4' -chaos-seed 7 \
//	  -node-hedge -straggler -brownout -default-slo 50ms
//
// -node-hedge launches a backup submission on the next-best node when a
// deadline request's slack half-expires; -straggler puts latency-outlier
// nodes on probation (probe traffic only) and migrates their queued
// work; -brownout sheds optional work progressively as fleet occupancy
// climbs instead of 503-ing at the knee. The same -chaos-seed replays
// the same incident. Watch the "resilience", "chaos" and "brownout"
// blocks of /v1/cluster; POST {"action":"sweep"} there to force a
// health sweep.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/models"
	"bomw/internal/opencl"
	"bomw/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	loadPath := flag.String("load", "", "load scheduler state instead of training")
	seed := flag.Int64("seed", 1, "random seed")
	window := flag.Duration("window", 2*time.Millisecond, "live batching window")
	maxBatch := flag.Int("max-batch", 64, "live batching size trigger (samples)")
	queueDepth := flag.Int("queue-depth", 256, "admission queue bound (requests)")
	deviceDepth := flag.Int("device-queue-depth", 8, "per-device worker queue bound (batches)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	defaultSLO := flag.Duration("default-slo", 0, "latency SLO for requests without timeout_ms (0 disables; requests predicted to miss are rejected 504)")
	faultSpec := flag.String("fault", "", "fault-injection spec, e.g. 'GTX 1080 Ti=err:0.05,outage:30s-45s' (see doc comment)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for fault-injection draws")
	nodes := flag.Int("nodes", 1, "fleet size: serving-node replicas behind the router")
	route := flag.String("route", "round-robin", "routing policy: round-robin, least-loaded, model-affinity or weighted-scoring")
	faultNodes := flag.String("fault-nodes", "0", "comma-separated node indices the -fault spec arms, or 'all' (per-node seeds)")
	chaosSpec := flag.String("chaos", "", "node-level chaos spec, e.g. 'crash:2:3,slow:2:4,horizon:2m' (see doc comment)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for chaos plan generation (same seed replays the same incident)")
	nodeHedge := flag.Bool("node-hedge", false, "hedge deadline requests onto the next-best node when half their slack is spent")
	straggler := flag.Bool("straggler", false, "detect straggling nodes (latency-EWMA outliers), probation them and migrate their queued work")
	brownout := flag.Bool("brownout", false, "shed optional work progressively as fleet occupancy climbs (hedges, then SLO-less requests, then batch windows)")
	flag.Parse()

	// Parse the fault spec, routing policy and fault-node set before the
	// expensive characterisation run so a typo fails fast; device names
	// are validated once the scheduler is up.
	var faultPlans map[string]opencl.FaultPlan
	if *faultSpec != "" {
		var err error
		if faultPlans, err = parseFaultSpec(*faultSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	policy, err := cluster.PolicyByName(*route, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	faultIdx, err := parseNodeSet(*faultNodes, *nodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Chaos plans are a pure function of (seed, fleet size, spec), and
	// node names are deterministic — generate before the fleet exists so
	// a bad spec fails before the characterisation run.
	var chaos *cluster.ChaosInjector
	if *chaosSpec != "" {
		ccfg, err := parseChaosSpec(*chaosSpec, *chaosSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		plans, err := cluster.GenerateChaosPlans(fleetNames(*nodes), ccfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		chaos = cluster.NewChaosInjector(plans)
	}

	var sched *core.Scheduler
	if *loadPath != "" {
		f, err2 := os.Open(*loadPath)
		if err2 != nil {
			fmt.Fprintln(os.Stderr, err2)
			os.Exit(1)
		}
		sched, err = core.LoadState(core.Config{Seed: *seed}, f)
		f.Close()
	} else {
		fmt.Println("bomwsrv: characterising devices and training the scheduler…")
		sched, err = core.New(core.Config{TrainModels: models.AllModels(), Seed: *seed})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, spec := range models.PaperModels() {
		if err := sched.LoadModel(spec, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *nodes > 1 {
		fmt.Printf("bomwsrv: replicating into a %d-node fleet (%s routing)…\n", *nodes, policy.Name())
	}
	api, err := server.NewCluster(sched, *seed, core.PipelineConfig{
		Window:           *window,
		MaxBatch:         *maxBatch,
		QueueDepth:       *queueDepth,
		DeviceQueueDepth: *deviceDepth,
		DefaultSLO:       *defaultSLO,
	}, *nodes, cluster.Config{
		Policy:    policy,
		Seed:      *seed,
		Chaos:     chaos,
		NodeHedge: *nodeHedge,
		Straggler: cluster.StragglerConfig{Enabled: *straggler},
		Brownout:  cluster.BrownoutConfig{Enabled: *brownout},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if chaos != nil {
		slowed := applySlowPlans(api.Nodes(), chaos, *chaosSeed)
		crashed := 0
		for _, p := range chaos.Plans() {
			if len(p.Crashes) > 0 {
				crashed++
			}
		}
		fmt.Printf("bomwsrv: chaos armed (seed %d): %d node(s) with crash windows, slow nodes %v\n",
			*chaosSeed, crashed, slowed)
	}

	if len(faultPlans) > 0 {
		known := map[string]bool{}
		for _, name := range sched.Devices() {
			known[name] = true
		}
		for dev := range faultPlans {
			if !known[dev] {
				fmt.Fprintf(os.Stderr, "bomwsrv: -fault names unknown device %q (have %v)\n", dev, sched.Devices())
				os.Exit(1)
			}
		}
		// Per-node injectors with decorrelated seeds: node i draws from
		// faultSeed+i, so "all" does not fault every replica in lockstep.
		fleet := api.Nodes()
		for _, idx := range faultIdx {
			fi := opencl.NewFaultInjector(*faultSeed + int64(idx))
			for dev, plan := range faultPlans {
				fi.SetPlan(dev, plan)
			}
			fleet[idx].Scheduler().Runtime().SetFaultInjector(fi)
		}
		fmt.Printf("bomwsrv: fault injection armed on nodes %v (base seed %d)\n", faultIdx, *faultSeed)
	}

	srv := &http.Server{Addr: *addr, Handler: api}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("bomwsrv: %d models loaded on %d node(s), serving on %s\n", len(models.PaperModels()), *nodes, *addr)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Println("bomwsrv: shutting down, draining in-flight requests…")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "bomwsrv: forced shutdown: %v\n", err)
		}
		api.Close() // flush open batches, drain device queues
		fmt.Println("bomwsrv: drained")
	}
}
