package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// minTail is the number of samples the benchmark requires beyond any
// percentile it reports: a tail percentile resting on fewer samples is
// one or two outliers, not a distribution.
const minTail = 10

// percentile returns the q-th percentile (0 < q < 100) of an ascending
// sample by the nearest-rank rule: the smallest value with at least q% of
// the sample at or below it. This is the one percentile convention of
// the benchmark.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := rank(len(sorted), q) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// rank is the 1-based nearest rank of the q-th percentile in a sample of
// n. The tolerance keeps q/100*n from rounding up past an exact rank
// (99.9/100*10000 is 9990.000000000002 in floating point).
func rank(n int, q float64) int {
	return int(math.Ceil(q/100*float64(n) - 1e-9))
}

// beyond is the number of samples strictly above the q-th percentile's
// rank in a sample of n.
func beyond(n int, q float64) int { return n - rank(n, q) }

// supported reports whether a sample of n supports the q-th percentile:
// at least minTail samples lie beyond it.
func supported(n int, q float64) bool { return n > 0 && beyond(n, q) >= minTail }

// highestSupported is the highest of the usual reporting percentiles that
// a sample of n supports, or 0 when it supports none of them (fewer than
// 20 samples).
func highestSupported(n int) float64 {
	for _, q := range []float64{99.9, 99, 95, 90, 50} {
		if supported(n, q) {
			return q
		}
	}
	return 0
}

// summary is a timing distribution as the benchmark reports it: the
// median, the p99 (when the sample supports it) and the highest
// supported percentile, with the sample count.
type summary struct {
	N       int
	P50     float64
	P99     float64
	P99OK   bool
	TailQ   float64
	TailVal float64
}

// summarize sorts vals in place and summarises it.
func summarize(vals []float64) summary {
	sort.Float64s(vals)
	s := summary{N: len(vals)}
	if s.N == 0 {
		return s
	}
	s.P50 = percentile(vals, 50)
	s.P99 = percentile(vals, 99)
	s.P99OK = supported(s.N, 99)
	if s.TailQ = highestSupported(s.N); s.TailQ > 0 {
		s.TailVal = percentile(vals, s.TailQ)
	}
	return s
}

func (s summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	out := fmt.Sprintf("n=%d p50=%.4g p99=%.4g", s.N, s.P50, s.P99)
	switch {
	case !s.P99OK:
		out += fmt.Sprintf(" (p99 unsupported; highest supported p%g=%.4g)", s.TailQ, s.TailVal)
	case s.TailQ > 99:
		out += fmt.Sprintf(" p%g=%.4g", s.TailQ, s.TailVal)
	}
	return out
}

// sampler keeps a uniform random sample of an unbounded stream in a
// buffer allocated up front (reservoir sampling), so recording a value
// never allocates inside a measured window. Count is exact. A sampler
// is owned by one goroutine.
type sampler struct {
	vals  []float64
	count int64
	rng   *rand.Rand
}

func newSampler(capacity int, seed int64) *sampler {
	return &sampler{vals: make([]float64, 0, capacity), rng: rand.New(rand.NewSource(seed))}
}

func (s *sampler) add(v float64) {
	s.count++
	if len(s.vals) < cap(s.vals) {
		s.vals = append(s.vals, v)
		return
	}
	if j := s.rng.Int63n(s.count); j < int64(len(s.vals)) {
		s.vals[j] = v
	}
}

// reset empties the sampler, keeping its buffer.
func (s *sampler) reset() {
	s.vals = s.vals[:0]
	s.count = 0
}

// merged concatenates the samples of several samplers. The goroutines
// that own them run the same loop, so their reservoirs are exchangeable
// and the concatenation stays representative.
func merged(ss ...*sampler) []float64 {
	var n int
	for _, s := range ss {
		n += len(s.vals)
	}
	out := make([]float64, 0, n)
	for _, s := range ss {
		out = append(out, s.vals...)
	}
	return out
}

// percentileOf is the q-th percentile of an unsorted sample, 0 when it
// is empty; the sample's order is left alone.
func percentileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	return percentile(c, q)
}

func median(vals []float64) float64 { return percentileOf(vals, 50) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// subWindows is how many equal parts a measured window is split into.
// Throughput and latency percentiles are reported from the best part,
// so a stall of the host that spares one part does not move them.
const subWindows = 5

// timeline tallies one generator goroutine's completed requests by the
// part of the window they were sent in.
type timeline struct {
	start time.Time
	part  time.Duration
	lat   [subWindows]*sampler // ms
	ok    [subWindows]int64
}

// newTimeline keeps up to perPart latencies in each part of the window.
func newTimeline(perPart int, seed int64) *timeline {
	t := &timeline{}
	for i := range t.lat {
		t.lat[i] = newSampler(perPart, seed*subWindows+int64(i))
	}
	return t
}

// begin empties the timeline for a window of length span starting now.
func (t *timeline) begin(start time.Time, span time.Duration) {
	t.start, t.part = start, span/subWindows
	for i := range t.lat {
		t.lat[i].reset()
		t.ok[i] = 0
	}
}

// add records a request sent at sent that completed correctly after
// latMS milliseconds. A request sent after the
// window (the rest of a virtual-replay repetition that began inside it)
// belongs to no part, so it cannot inflate the last part's rate.
func (t *timeline) add(sent time.Time, latMS float64) {
	i := int(sent.Sub(t.start) / t.part)
	if i < 0 {
		i = 0
	}
	if i >= subWindows {
		return
	}
	t.lat[i].add(latMS)
	t.ok[i]++
}

// parts merges the timelines of a window's goroutines.
func parts(ts ...*timeline) []part {
	out := make([]part, subWindows)
	for i := range out {
		var ss []*sampler
		for _, t := range ts {
			out[i].ok += t.ok[i]
			ss = append(ss, t.lat[i])
		}
		out[i].lat = merged(ss...)
		if len(ts) > 0 {
			out[i].seconds = ts[0].part.Seconds()
		}
	}
	return out
}

// part is one part of a measured window.
type part struct {
	ok      int64
	lat     []float64 // ms
	seconds float64
}
