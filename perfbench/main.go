// Command perfbench is the repository's end-to-end benchmark. It sets up
// the production system (the scheduler trained as bomwsrv trains it, the
// five paper models loaded, the serving fleet built), drives one
// workload through the public entry points for a fixed wall-clock
// window, checks every output, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half, the traced half
// records spans around every call into the program, a probe phase times
// each layer on the batches the pipeline actually formed, and the
// metrics are the per-layer ones. Spans, the per-layer table and a full
// result record are written under .bench_build/perfbench in the checkout.
//
// Usage, from the root of a checkout (perfbench/run.sh builds and runs):
//
//	bash perfbench/run.sh --workload http-real --seed 1 --seconds 15 --trace 0
//
// RATIONALE.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 3

// sloLimit is the latency limit slo_attainment counts against.
const sloLimit = 50 * time.Millisecond

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.root, "root", ".", "repository checkout the benchmark was built from")
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the measured window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	wl, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	host := fingerprint(o.root, o.seed)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%v\nhost %s\n", o.workload, o.seed, o.seconds, o.trace, host)

	rep, err := measure(wl, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	v := verdict{
		Correct:   len(rep.bad) == 0,
		Attempted: rep.out.Attempted,
		Failed:    rep.out.errors(),
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v.Metrics[d.Name] = metricValue{Value: rep.values[d.Name], Unit: d.Unit}
	}
	printMetrics(stdout, defs, rep.values, o.trace)
	for _, b := range rep.bad {
		fmt.Fprintf(stdout, "VERIFICATION FAILED: %s\n", b)
	}
	if err := writeRecord(o, host, rep, v); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing the result record: %v\n", err)
		return 1
	}
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !v.Correct {
		return 1
	}
	return 0
}

// report is everything one run measured.
type report struct {
	out    outcomes
	values map[string]float64
	bad    []string
	steal  float64 // share of host CPU stolen during the measured window, -1 if unknown
	tracer *tracer
}

// measure sets the system up, runs the workload's windows and derives
// the metrics.
func measure(wl workload, o options, stdout io.Writer) (*report, error) {
	f, setup, err := setUpRepeated(wl.build, setupReps)
	if err != nil {
		return nil, err
	}
	defer f.close()
	fmt.Fprintf(stdout, "setup x%d: median %.3fs (new %.3fs, load %.3fs, build %.3fs), heap %.1f MB\n",
		setupReps, setup.times.Total, setup.times.New, setup.times.Load, setup.times.Build, setup.heapMB)

	r, err := wl.prepare(f, o.seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	warm, err := r.window(warmupSpan, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	rep := &report{values: map[string]float64{}, steal: -1}
	span := time.Duration(o.seconds) * time.Second
	if !o.trace {
		rate := ratio(float64(warm.out.OK), warm.wall)
		if l := lengthened(span, rate); l != span {
			span = l
			fmt.Fprintf(stdout, "window lengthened to %v: %.1f req/s in the warm-up\n", span, rate)
		}
		w, err := measuredWindow(r, span, rep, stdout)
		if err != nil {
			return nil, err
		}
		rep.out = w.out
		if err := endToEndValues(w, rep.values); err != nil {
			return nil, err
		}
		rep.values["setup_s"] = setup.times.Total
		rep.values["setup_heap_mb"] = setup.heapMB
		printWindow(stdout, w)
		return rep, nil
	}

	// Traced run: an untraced half, then a traced half of the window.
	plain, err := r.window(span/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	w, err := r.window(span/2, tr)
	if err != nil {
		return nil, err
	}
	rep.tracer = tr
	rep.out = plain.out
	rep.out.addAll(w.out)
	rep.bad = append(append(rep.bad, plain.bad...), w.bad...)
	for _, d := range perLayer {
		rep.values[d.Name] = 0
	}
	r.layers(w, tr, rep.values)
	probe(f, r.records(), o.seed, wl.realMath, rep.values)
	rep.values["setup.new_s"] = setup.times.New
	rep.values["setup.load_s"] = setup.times.Load
	rep.values["setup.build_s"] = setup.times.Build
	untraced, traced := ratio(float64(plain.out.OK), plain.wall), ratio(float64(w.out.OK), w.wall)
	rep.values["trace.untraced_throughput_rps"] = untraced
	rep.values["trace.traced_throughput_rps"] = traced
	rep.values["trace.overhead_share"] = 1 - ratio(traced, untraced)
	printWindow(stdout, plain)
	printWindow(stdout, w)
	return rep, nil
}

// maxSteal is the share of host CPU time the hypervisor may steal during
// a measured window before the window is measured again: a window that
// lost that much CPU to other guests measures the host, not the program.
// On the 2-CPU host the benchmark was defined on, fleet-estimate windows
// under 3% steal read p99 0.57-0.73 ms, and windows over 6% read 1.1-2.2
// ms.
const maxSteal = 0.05

// measuredWindow measures one window and, in two cases, one more. If
// the hypervisor stole more than maxSteal of the CPU during it, the next
// window has the same length. If the rate sagged so far below the
// warm-up's that the window holds too few requests for a p99, the next
// window is lengthened by the rate it saw. Of the windows that hold
// enough requests, it keeps the one that lost the least CPU. The
// verification failures of every window are kept.
func measuredWindow(r runner, span time.Duration, rep *report, stdout io.Writer) (*window, error) {
	var best *window
	for attempt := 0; attempt < 2; attempt++ {
		m := startSteal()
		w, err := r.window(span, nil)
		if err != nil {
			return nil, err
		}
		steal := m.share()
		fmt.Fprintf(stdout, "host CPU stolen by the hypervisor during the window: %.1f%%\n", 100*steal)
		rep.bad = append(rep.bad, w.bad...)
		if n := w.sampled(); !supported(n, 99) {
			span = max(span+time.Second, lengthened(span, ratio(float64(n), w.wall)))
			fmt.Fprintf(stdout, "window too short for a p99: %d requests; measuring %v\n", n, span)
			continue
		}
		if best == nil || steal < rep.steal {
			best, rep.steal = w, steal
		}
		if steal <= maxSteal {
			break
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no window held the %d requests a p99 needs", 100*minTail)
	}
	return best, nil
}

// lengthened returns span, or, if a window of span at rate requests per
// second would hold fewer than minRequests, the whole seconds that hold
// them. This is LoadGen's minimum query count: a host too slow for the
// set length gets a longer window rather than an unsupported p99.
func lengthened(span time.Duration, rate float64) time.Duration {
	if rate > 0 && rate*span.Seconds() < minRequests {
		return time.Duration(math.Ceil(minRequests/rate)) * time.Second
	}
	return span
}

// warmupSpan is the unmeasured lead-in that lets the heap, caches and
// batching reach their steady state before the window.
const warmupSpan = 2 * time.Second

// minRequests is the fewest requests a measured window is planned for:
// 1000 support a p99 with ten samples beyond it, and the margin covers a
// rate that sags after the warm-up.
const minRequests = 1250

// window is what one measured window observed.
type window struct {
	out        outcomes
	wall       float64 // seconds from the first send to the last completion
	parts      []part  // requests completed ok, by the part of the window they were sent in
	simLatMS   float64 // Σ simulated latency of simN requests completed ok, ms (see endToEndValues)
	simN       int64
	samples    int64    // samples in requests completed ok
	energyJ    float64  // simulated energy of requests completed ok
	inSLO      int64    // requests completed ok within sloLimit
	simSeconds float64  // simulated seconds the samples were served in (see endToEndValues)
	allocBytes uint64   // bytes allocated in the process during the window
	bad        []string // verification failures
}

// sampled is the number of latencies the window's parts hold.
func (w *window) sampled() int {
	n := 0
	for _, p := range w.parts {
		n += len(p.lat)
	}
	return n
}

// latencies pools the latencies (ms, from send) of the window's parts.
func (w *window) latencies() []float64 {
	var out []float64
	for _, p := range w.parts {
		out = append(out, p.lat...)
	}
	return out
}

// endToEndValues derives the end-to-end metrics of a window. The sim_*
// figures come from the window's simLatMS and simSeconds: on the live
// workloads, the device model's execution time of each request's batch
// on the device the scheduler picked (without the aggregation wait and
// the device queue), and the device time the samples occupied; on
// virtual-replay, the virtual completion − arrival of each query and the
// scenarios' makespan.
func endToEndValues(w *window, vals map[string]float64) error {
	if w.out.OK == 0 {
		return fmt.Errorf("no request completed in the window")
	}
	lat := summarize(w.latencies())
	if !lat.P99OK {
		return fmt.Errorf("window too short: %d latency samples leave fewer than %d beyond p99", lat.N, minTail)
	}
	// Rates and percentiles per part, reported from the best part, as
	// timeit reports the best of its repeats: on a shared host, other
	// guests slow parts of a window down, never speed them up. Where a
	// part holds too few samples for its own p99 (http-real), the p99 is
	// taken over the whole window.
	var rps, p50, p99 []float64
	for _, p := range w.parts {
		ps := summarize(p.lat)
		rps = append(rps, float64(p.ok)/p.seconds)
		p50 = append(p50, ps.P50)
		if ps.P99OK {
			p99 = append(p99, ps.P99)
		}
	}
	vals["throughput_rps"] = slices.Max(rps)
	vals["latency_p50_ms"] = slices.Min(p50)
	vals["latency_p99_ms"] = lat.P99
	if len(p99) == len(w.parts) {
		vals["latency_p99_ms"] = slices.Min(p99)
	}
	vals["success_rate"] = float64(w.out.OK) / float64(w.out.Attempted)
	vals["slo_attainment"] = float64(w.inSLO) / float64(w.out.Attempted)
	vals["alloc_bytes_per_req"] = float64(w.allocBytes) / float64(w.out.OK)
	vals["sim_energy_mj_per_sample"] = w.energyJ * 1000 / float64(w.samples)
	vals["sim_latency_mean_ms"] = ratio(w.simLatMS, float64(w.simN))
	vals["sim_samples_per_s"] = ratio(float64(w.samples), w.simSeconds)
	return nil
}

func printWindow(out io.Writer, w *window) {
	o := w.out
	fmt.Fprintf(out, "window %.2fs: attempted=%d ok=%d wrong=%d shed=%d rejected=%d expired=%d failed=%d\n",
		w.wall, o.Attempted, o.OK, o.Wrong, o.Shed, o.Rejected, o.Expired, o.Failed)
	fmt.Fprintf(out, "  latency ms: %s\n", summarize(w.latencies()))
	for i, p := range w.parts {
		fmt.Fprintf(out, "    part %d: %d ok, %.1f req/s, latency %s\n", i+1, p.ok, float64(p.ok)/p.seconds, summarize(p.lat))
	}
	fmt.Fprintf(out, "  sim latency mean ms: %.4g over %d requests\n", ratio(w.simLatMS, float64(w.simN)), w.simN)
}

func printMetrics(out io.Writer, defs []metricDef, vals map[string]float64, layered bool) {
	if !layered {
		fmt.Fprintln(out, "end-to-end metrics:")
		for _, d := range defs {
			fmt.Fprintf(out, "  %-26s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
		}
		return
	}
	fmt.Fprint(out, layerTable(vals))
}

// layerTable renders the per-layer table: each row names the end-to-end
// metric and the workload it should move.
func layerTable(vals map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-38s %14s %-8s %-44s %s\n", "per-layer metric", "value", "unit", "should move", "on workload")
	for _, d := range perLayer {
		fmt.Fprintf(&b, "%-38s %14.6g %-8s %-44s %s\n", d.Name, vals[d.Name], d.Unit, d.Moves, d.On)
	}
	return b.String()
}

// writeRecord writes the run's full record (provenance, every value,
// diagnostics) and, for a traced run, its spans and per-layer table,
// under .bench_build/perfbench in the checkout.
func writeRecord(o options, host hostInfo, rep *report, v verdict) error {
	dir := filepath.Join(o.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", o.workload, o.seed, mode))
	keys := make([]string, 0, len(rep.values))
	for k := range rep.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rec := struct {
		Workload string             `json:"workload"`
		Seconds  int                `json:"seconds"`
		Host     hostInfo           `json:"host"`
		Verdict  verdict            `json:"verdict"`
		Outcomes outcomes           `json:"outcomes"`
		Values   map[string]float64 `json:"values"`
		Failures []string           `json:"verification_failures"`
		Steal    float64            `json:"host_steal_share"`
		Time     string             `json:"time"`
	}{o.workload, o.seconds, host, v, rep.out, rep.values, rep.bad, rep.steal, time.Now().UTC().Format(time.RFC3339)}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if rep.tracer == nil {
		return nil
	}
	if err := os.WriteFile(base+".layers.txt", []byte(layerTable(rep.values)), 0o644); err != nil {
		return err
	}
	return rep.tracer.writeSpans(base + ".spans.jsonl")
}

// readMem returns the process's cumulative allocated bytes.
func readMem() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
