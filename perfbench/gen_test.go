package main

import (
	"fmt"
	"reflect"
	"testing"
)

// Every workload's generated inputs must be a pure function of the seed.
func TestGeneratorsAreDeterministicInTheSeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"http-real cases":          func(s int64) any { return httpCases(s) },
		"http-real schedule":       func(s int64) any { return schedule(s, 1, 114, 500) },
		"fleet-estimate stream":    func(s int64) any { return estimateStream(s, 1, 2) },
		"virtual-replay scenarios": func(s int64) any { return replayParams(s) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: two draws with seed 7 differ", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 draw the same inputs", name)
		}
	}
}

// The seed changes the samples and the order, never the offered mix.
func TestMixIsFixedAcrossSeeds(t *testing.T) {
	mix := func(seed int64) map[string]int {
		m := map[string]int{}
		for _, c := range httpCases(seed) {
			m[fmt.Sprintf("%s/%s/%d/%v", c.Model, c.Policy, len(c.Samples), c.Deadline)]++
		}
		return m
	}
	if !reflect.DeepEqual(mix(1), mix(2)) {
		t.Error("http-real mix depends on the seed")
	}
	cases := httpCases(1)
	cifar, deadlines := 0, 0
	for _, c := range cases {
		if c.Deadline > 0 {
			deadlines++
		}
		if c.Model == "cifar-10" {
			cifar++
			if len(c.Samples) != 1 {
				t.Errorf("cifar-10 request with %d samples", len(c.Samples))
			}
		}
	}
	if len(cases) != 114 || cifar != 6 || deadlines != 36 {
		t.Errorf("http-real pool: %d cases, %d cifar-10, %d with a deadline; want 114, 6, 36", len(cases), cifar, deadlines)
	}

	count := map[estimateReq]int{}
	for _, q := range estimateStream(3, 0, 2) {
		count[q]++
	}
	if len(count) != 5*16*3 {
		t.Errorf("fleet-estimate ring covers %d combinations, want 240", len(count))
	}
	for q, n := range count {
		if n != 2 {
			t.Errorf("%+v appears %d times in 2 passes", q, n)
		}
	}

	sched := schedule(5, 0, 10, 30)
	seen := map[int]int{}
	for _, i := range sched {
		seen[i]++
	}
	for i := 0; i < 10; i++ {
		if seen[i] != 3 {
			t.Errorf("schedule sends request %d %d times in 3 passes", i, seen[i])
		}
	}
}
