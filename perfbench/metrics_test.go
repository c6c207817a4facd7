package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs enforces the metric-name grammar: names start with a letter or
// digit, use only letters, digits, '_', '.', '-', are at most 64 long and
// unique; units are short and drawn from the same alphabet plus '/', '%'.
func checkDefs(defs []MetricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q breaks the grammar", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q breaks the grammar", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better %q is neither lower nor higher", d.Name, d.Better)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

func TestMetricGrammar(t *testing.T) {
	if err := checkDefs(append(append([]MetricDef(nil), endToEnd...), perLayer...)); err != nil {
		t.Fatal(err)
	}
	bad := [][]MetricDef{
		{{"_leading", "s", "lower"}},
		{{"has space", "s", "lower"}},
		{{"x", "", "lower"}},
		{{"x", "a unit", "lower"}},
		{{"x", "s", "sideways"}},
		{{"x", "s", "lower"}, {"x", "ms", "lower"}},
		{{"a234567890123456789012345678901234567890123456789012345678901234x", "s", "lower"}},
	}
	for _, defs := range bad {
		if checkDefs(defs) == nil {
			t.Errorf("checkDefs(%v) accepted a bad definition", defs)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables of this package in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if len(wls) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", wls, workloadNames)
	}
	for i := range wls {
		if wls[i] != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, wls[i], workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}
