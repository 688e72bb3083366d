package scenario

import (
	"testing"
	"time"
)

func TestPercentileEdgeValues(t *testing.T) {
	// Pin the nearest-rank convention (idx = ceil(p/100·n)−1 on the
	// sorted population): a single sample answers every percentile, p=0
	// is the minimum, p=100 the maximum, and out-of-range p clamps.
	one := []time.Duration{42 * time.Millisecond}
	var res ReplayResult
	res.Record(one[0], 1, Exec{})
	for _, q := range []float64{0, 50, 100} {
		if got := res.Percentile(q); got != one[0] {
			t.Errorf("n=1 p%v = %v, want %v", q, got, one[0])
		}
		if got := nearestRank(one, q); got != one[0] {
			t.Errorf("nearestRank n=1 p%v = %v, want %v", q, got, one[0])
		}
	}

	var multi ReplayResult
	lats := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	for _, l := range lats {
		multi.Record(l, 1, Exec{})
	}
	if got := multi.Percentile(0); got != lats[1] {
		t.Errorf("p0 = %v, want the minimum %v", got, lats[1])
	}
	if got := multi.Percentile(50); got != lats[2] {
		t.Errorf("p50 = %v, want the median %v", got, lats[2])
	}
	if got := multi.Percentile(100); got != lats[0] {
		t.Errorf("p100 = %v, want the maximum %v", got, lats[0])
	}
	if got := multi.Percentile(-5); got != lats[1] {
		t.Errorf("p<0 = %v, want clamp to minimum %v", got, lats[1])
	}
	if got := multi.Percentile(250); got != lats[0] {
		t.Errorf("p>100 = %v, want clamp to maximum %v", got, lats[0])
	}
	var empty ReplayResult
	if got := empty.Percentile(50); got != 0 {
		t.Errorf("empty population p50 = %v, want 0", got)
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("nearestRank empty population p50 = %v, want 0", got)
	}
}
