package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seeds pairs values with seeds 1..n.
func seeds(vs ...float64) sample {
	s := sample{}
	for i, v := range vs {
		s[uint64(i+1)] = []float64{v}
	}
	return s
}

func TestVerdict(t *testing.T) {
	parent := seeds(10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10)
	for _, c := range []struct {
		name   string
		change sample
		better string
		bound  float64
		want   string
	}{
		{"identical", parent, "lower", 0.1, "same"},
		{"within bound", seeds(10.5, 10.6, 10.4, 10.5, 10.7, 10.3, 10.5, 10.6, 10.4, 10.5), "lower", 0.1, "same"},
		{"past bound", seeds(12, 12, 12, 12, 12, 12, 12, 12, 12, 12), "lower", 0.1, "worse"},
		{"clear gain", seeds(8, 8, 8, 8, 8, 8, 8, 8, 8, 8), "lower", 0.1, "better"},
		{"gain on other seeds", sample{99: {8, 8, 8, 8, 8, 8, 8, 8, 8, 8}}, "lower", 0.1, "unresolved"},
		{"higher is better", seeds(8, 8, 8, 8, 8, 8, 8, 8, 8, 8), "higher", 0.1, "worse"},
		{"gain inside the noise", seeds(9.9, 10.2, 9.8, 9.9, 10.1, 9.7, 9.9, 10, 9.8, 9.9), "lower", 0.01, "unresolved"},
		{"unbounded count moved", seeds(11, 11, 11, 11, 11, 11, 11, 11, 11, 11), "lower", 0, "worse"},
	} {
		if got := verdict(parent, c.change, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReadsRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name, wall string) string {
		path := filepath.Join(dir, name)
		body := "perfbench workload=xalanc-table3\n" +
			`record {"workload":"xalanc-table3","seed":1,"metrics":{"wall_s":{"value":` + wall + `,"unit":"s"}}}` + "\n" +
			`{"correct":true}` + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p, c := write("parent.txt", "10"), write("change.txt", "20")
	var out, errs bytes.Buffer
	if code := compareMain([]string{p, c}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), "worse") {
		t.Fatalf("unexpected table:\n%s", out.String())
	}
	if code := compareMain([]string{p}, &out, &errs); code != 2 {
		t.Fatalf("one argument: exit %d, want 2", code)
	}
}
