package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, reportOnly, perLayer} {
		for _, d := range list {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, nameRE)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %s: direction %q", d.name, d.better)
			}
			if seen[d.name] {
				t.Errorf("metric %s listed twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, b := range profileBuckets {
		if !seen["host.self_share."+b] {
			t.Errorf("profile bucket %s has no host.self_share metric", b)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and perfbench's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != bounded ||
				(bounded && *m.Bound != d.bound) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, perfbench %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
