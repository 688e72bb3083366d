package main

import (
	"math/rand"
	"time"

	"bomw/internal/mlsched"
)

const (
	// probeBatches is how many recorded batches the probe phase replays.
	probeBatches = 200
	// probeShapes is how many recorded batch shapes the forward-pass
	// probe runs per model.
	probeShapes = 8
	// mathBudget bounds the wall time of the probes that run real tensor
	// math, so a traced run stays short.
	mathBudget = 4 * time.Second
)

// probe replays a seeded sample of the batches the program formed
// through each layer's public entry point, one call at a time, and fills
// the per-layer timings: scheduler decision (fresh and memoised),
// classifier ranking, simulated execution and, on paths that run the
// tensor math, real execution and the forward pass.
func probe(f *fixture, recs []batchRec, seed int64, realMath bool, vals map[string]float64) {
	if len(recs) == 0 {
		return
	}
	sched, rt := f.sched, f.sched.Runtime()
	now := func() time.Duration { return 0 }
	if f.srv != nil {
		now = f.srv.Cluster().Clock()
	}
	rng := rand.New(rand.NewSource(seed*7 + 3))
	pick := make([]batchRec, probeBatches)
	for i := range pick {
		pick[i] = recs[rng.Intn(len(recs))]
	}

	us := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
	var sel, cached, rank, est []float64
	for _, b := range pick {
		t0 := time.Now()
		dec, err := sched.Select(b.Model, b.Batch, b.Policy, now())
		sel = append(sel, us(t0))
		if err != nil {
			continue
		}
		t0 = time.Now()
		_, _ = sched.SelectCached(b.Model, b.Batch, b.Policy, now())
		cached = append(cached, us(t0))

		clf := sched.Classifier(b.Policy)
		t0 = time.Now()
		if rk, ok := clf.(mlsched.Ranker); ok {
			rk.Rank(dec.Features)
		} else {
			clf.Predict(dec.Features)
		}
		rank = append(rank, us(t0))

		t0 = time.Now()
		_, _ = rt.Estimate(b.Device, b.Model, b.Batch, now())
		est = append(est, us(t0))
	}
	vals["scheduler.select_us_p50"] = median(sel)
	vals["scheduler.select_cached_us_p50"] = median(cached)
	vals["mlsched.rank_us_p50"] = median(rank)
	vals["opencl.estimate_us_p50"] = median(est)
	if !realMath {
		return
	}

	stop := time.Now().Add(mathBudget / 2)
	var cls []float64
	for _, b := range pick {
		if time.Now().After(stop) {
			break
		}
		in := inputTensor(b.Model, samples(b.Model, b.Batch, rng.Int63()))
		t0 := time.Now()
		if _, err := rt.Classify(b.Device, b.Model, in, now()); err == nil {
			cls = append(cls, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	vals["opencl.classify_ms_p50"] = median(cls)

	stop = time.Now().Add(mathBudget / 2)
	for _, m := range nnModels {
		prog, err := rt.Program(m)
		if err != nil {
			continue
		}
		var fwd, gflops, alloc []float64
		for _, b := range pick {
			if b.Model != m || len(fwd) == probeShapes || time.Now().After(stop) {
				continue
			}
			dev, err := rt.Context().DeviceByName(b.Device)
			if err != nil {
				continue
			}
			in := inputTensor(m, samples(m, b.Batch, rng.Int63()))
			mem0 := readMem()
			t0 := time.Now()
			prog.Net.Forward(dev.Pool, in)
			dt := time.Since(t0)
			alloc = append(alloc, float64(readMem()-mem0))
			fwd = append(fwd, float64(dt.Nanoseconds())/1e6)
			gflops = append(gflops, float64(prog.Net.FlopsPerSample())*float64(b.Batch)/dt.Seconds()/1e9)
		}
		vals["nn.forward_ms_p50."+m] = median(fwd)
		vals["nn.gflops."+m] = median(gflops)
		vals["nn.alloc_bytes_per_forward."+m] = median(alloc)
	}
}
