package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if got := workloadNames(); !reflect.DeepEqual(listed, got) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program runs %v", listed, got)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	var maxBound float64
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}
