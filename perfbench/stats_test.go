package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100) // 1..100
	for _, c := range []struct{ q, want float64 }{
		{50, 50}, {99, 99}, {1, 1}, {99.5, 100}, {100, 100}, {0.1, 1},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	if got := percentileOf(nil, 50); got != 0 {
		t.Errorf("percentileOf(empty) = %g, want 0", got)
	}
	unsorted := []float64{5, 1, 4, 2, 3}
	if got := median(unsorted); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if unsorted[0] != 5 {
		t.Error("median reordered its argument")
	}
}

func TestTailSupport(t *testing.T) {
	// p99 needs ten samples beyond it: 1000 is the smallest sample that
	// supports it.
	if !supported(1000, 99) || supported(999, 99) {
		t.Errorf("p99 support: 1000 -> %v, 999 -> %v; want true, false", supported(1000, 99), supported(999, 99))
	}
	if !supported(10000, 99.9) || supported(9999, 99.9) {
		t.Error("p99.9 support should start at 10000 samples")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {20, 50}, {19, 0}, {0, 0}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	s := summarize(seq(1000))
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || !s.P99OK || s.TailQ != 99 {
		t.Errorf("summary of 1..1000 = %+v", s)
	}
	if s := summarize(seq(500)); s.P99OK || s.TailQ != 95 {
		t.Errorf("summary of 500 samples should not support p99: %+v", s)
	}
}

func TestSamplerKeepsBoundedUniformSample(t *testing.T) {
	s := newSampler(100, 1)
	for i := 0; i < 10000; i++ {
		s.add(float64(i))
	}
	if s.count != 10000 || len(s.vals) != 100 || cap(s.vals) != 100 {
		t.Fatalf("count %d, kept %d (cap %d); want 10000, 100, 100", s.count, len(s.vals), cap(s.vals))
	}
	// A uniform sample of 0..9999 has its median near 5000.
	if m := median(s.vals); m < 3500 || m > 6500 {
		t.Errorf("reservoir median %g is far from the stream median 5000", m)
	}
	s.reset()
	if s.count != 0 || len(s.vals) != 0 || cap(s.vals) != 100 {
		t.Errorf("reset left count %d, len %d, cap %d", s.count, len(s.vals), cap(s.vals))
	}
	a, b := newSampler(4, 1), newSampler(4, 2)
	a.add(1)
	b.add(2)
	b.add(3)
	if got := merged(a, b); len(got) != 3 {
		t.Errorf("merged = %v, want 3 values", got)
	}
}

// A window is lengthened only when its rate leaves it short of
// minRequests, and then to the whole seconds that hold them.
func TestLengthened(t *testing.T) {
	for _, c := range []struct {
		span time.Duration
		rate float64
		want time.Duration
	}{
		{15 * time.Second, 90, 15 * time.Second},
		{15 * time.Second, 60, 21 * time.Second},
		{15 * time.Second, 0, 15 * time.Second},
	} {
		if got := lengthened(c.span, c.rate); got != c.want {
			t.Errorf("lengthened(%v, %g) = %v, want %v", c.span, c.rate, got, c.want)
		}
	}
}
