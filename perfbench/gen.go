package main

import (
	"math/rand"
	"time"

	"bomw/internal/core"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/tensor"
	"bomw/internal/workload/scenario"
)

// Every generator below is a pure function of the benchmark seed: the
// same seed gives the same inputs, and the program sees only these.

var policies = []core.Policy{core.BestThroughput, core.LowestLatency, core.EnergyEfficiency}

// paperModelNames are the five evaluation models, in paper order.
func paperModelNames() []string {
	var names []string
	for _, s := range models.PaperModels() {
		names = append(names, s.Name)
	}
	return names
}

func specOf(model string) *nn.Spec {
	spec, err := models.ByName(model)
	if err != nil {
		panic(err) // the generators name only built-in models
	}
	return spec
}

// samples returns n real synthetic samples for model, rows of the
// model's flattened input.
func samples(model string, n int, seed int64) [][]float32 {
	ds := models.Synthesize(specOf(model), n, seed)
	per := ds.X.Len() / n
	data := ds.X.Data()
	out := make([][]float32, n)
	for i := range out {
		out[i] = append([]float32(nil), data[i*per:(i+1)*per]...)
	}
	return out
}

// inputTensor stacks sample rows into the model's input tensor.
func inputTensor(model string, rows [][]float32) *tensor.Tensor {
	spec := specOf(model)
	flat := make([]float32, 0, len(rows)*len(rows[0]))
	for _, r := range rows {
		flat = append(flat, r...)
	}
	return tensor.FromSlice(flat, append([]int{len(rows)}, spec.InputShape...)...)
}

// classifyCase is one distinct real-sample classification request.
type classifyCase struct {
	Model   string
	Policy  core.Policy
	Samples [][]float32
	// Deadline is the request's latency SLO (timeout_ms); 0 sends none.
	Deadline time.Duration
}

// httpDeadline is the SLO a third of the http-real requests carry: far
// above their latency, so admission control, deadline culling and the
// fleet's hedging path run on every such request and reject none.
const httpDeadline = time.Second

// httpCases draws the http-real request pool: every combination of
// simple, mnist-small and mnist-cnn, 1-4 samples and the three policies
// three times over, the first time with httpDeadline, plus two 1-sample
// cifar-10 requests per policy (5% of the pool). The mix is fixed and
// the seed draws the samples and the order, so runs on different seeds
// offer the same work.
func httpCases(seed int64) []classifyCase {
	rng := rand.New(rand.NewSource(seed))
	var out []classifyCase
	add := func(model string, k int, p core.Policy, deadline time.Duration) {
		out = append(out, classifyCase{Model: model, Policy: p, Samples: samples(model, k, rng.Int63()), Deadline: deadline})
	}
	for rep := 0; rep < 3; rep++ {
		var deadline time.Duration
		if rep == 0 {
			deadline = httpDeadline
		}
		for _, m := range []string{"simple", "mnist-small", "mnist-cnn"} {
			for k := 1; k <= 4; k++ {
				for _, p := range policies {
					add(m, k, p, deadline)
				}
			}
		}
	}
	for rep := 0; rep < 2; rep++ {
		for _, p := range policies {
			add("cifar-10", 1, p, 0)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// schedule is a seeded sequence of n indices into a request pool, one
// per generator goroutine: successive seeded permutations, so every
// request of the pool is sent equally often.
func schedule(seed int64, worker, poolSize, n int) []int {
	rng := rand.New(rand.NewSource(seed*7919 + int64(worker) + 1))
	out := make([]int, 0, n+poolSize)
	for len(out) < n {
		out = append(out, rng.Perm(poolSize)...)
	}
	return out[:n]
}

// estimateReq is one timing-only request.
type estimateReq struct {
	Model  string
	Batch  int
	Policy core.Policy
}

// estimateStream draws a fleet-estimate generator's request ring: every
// combination of the five paper models, batch 1-16 and the three
// policies once per pass, each pass in a seeded order.
func estimateStream(seed int64, worker, passes int) []estimateReq {
	rng := rand.New(rand.NewSource(seed*31337 + int64(worker) + 1))
	var combos []estimateReq
	for _, m := range paperModelNames() {
		for b := 1; b <= 16; b++ {
			for _, p := range policies {
				combos = append(combos, estimateReq{Model: m, Batch: b, Policy: p})
			}
		}
	}
	out := make([]estimateReq, 0, passes*len(combos))
	for i := 0; i < passes; i++ {
		for _, j := range rng.Perm(len(combos)) {
			out = append(out, combos[j])
		}
	}
	return out
}

// replayQueries is the query count of one virtual-replay scenario run.
const replayQueries = 16000

// replayRate is the offered rate of every virtual-replay scenario in
// queries per second of virtual time.
const replayRate = 250

// replayParams draws the virtual-replay scenario set: the MLPerf Server
// scenario for every paper model under every policy, each with its own
// seeded Poisson arrivals.
func replayParams(seed int64) []scenario.Params {
	rng := rand.New(rand.NewSource(seed))
	var out []scenario.Params
	for _, m := range paperModelNames() {
		for _, p := range policies {
			out = append(out, scenario.Params{
				Kind:       scenario.Server,
				Model:      m,
				Policy:     p,
				Queries:    replayQueries,
				TargetRate: replayRate,
				SLO:        sloLimit,
				Seed:       rng.Int63n(1<<31) + 1,
			})
		}
	}
	return out
}
