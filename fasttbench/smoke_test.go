package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload at smoke size, untraced and traced, with
// all of its correctness checks.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer(name == "search")
			}
			res, w, err := runWorkload(name, 1, 0, tr, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for k := range e2eUnits {
				if v := res.Metrics[k].Value; !(v > 0) {
					t.Errorf("%s traced=%v: %s = %v, want > 0", name, traced, k, v)
				}
			}
			if !traced {
				continue
			}
			vals, err := w.layers()
			if err != nil {
				t.Errorf("%s layers: %v", name, err)
			}
			for k, v := range vals {
				if _, ok := layerUnits[k]; !ok || math.IsNaN(v) {
					t.Errorf("%s: per-layer %s = %v (listed %v)", name, k, v, ok)
				}
			}
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(n=4) on known inputs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics,
// with the units, that the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{spec.EndToEnd, e2eUnits}, {spec.PerLayer, layerUnits}} {
		if len(c.listed) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.listed), len(c.units))
		}
		for _, m := range c.listed {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s): the benchmark prints unit %q", m.Name, m.Unit, u)
			}
		}
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
}
