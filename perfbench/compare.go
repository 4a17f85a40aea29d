package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runRecord is what compare mode reads back from a run's "record" line.
type runRecord struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	Metrics  map[string]metricValue `json:"metrics"`
}

// loadRecords reads every "record " line of the files under path (a
// file, or a directory whose regular files are read in name order).
func loadRecords(path string) ([]runRecord, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		ents, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range ents {
			if e.Type().IsRegular() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var out []runRecord
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<26)
		for sc.Scan() {
			line, ok := strings.CutPrefix(sc.Text(), "record ")
			if !ok {
				continue
			}
			var r runRecord
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			out = append(out, r)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return out, nil
}

// sample is one metric's values on one side, keyed by seed so the two
// sides pair run for run.
type sample map[uint64][]float64

func (s sample) values() []float64 {
	var out []float64
	for _, vs := range s {
		out = append(out, vs...)
	}
	return out
}

// group indexes records by workload, then metric.
func group(rs []runRecord) map[string]map[string]sample {
	out := map[string]map[string]sample{}
	for _, r := range rs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]sample{}
		}
		for name, m := range r.Metrics {
			s := out[r.Workload][name]
			if s == nil {
				s = sample{}
				out[r.Workload][name] = s
			}
			s[r.Seed] = append(s[r.Seed], m.Value)
		}
	}
	return out
}

// verdict judges a change against its parent for one metric, following
// the choosing-metrics rules: "worse" when the change's median is worse
// than the parent's by more than bound; "better" when it is better by
// more than the parent's own spread and the change wins at least nine
// tenths of the seed-paired runs; "unresolved" when the parent's spread
// exceeds the bound, when the median improved by more than that spread
// without such a win (e.g. the two sides ran on different seeds) or,
// for an unbounded per-layer metric, when the medians differ without a
// clear win; "same" otherwise.
func verdict(parent, change sample, better string, bound float64) string {
	pv, cv := parent.values(), change.values()
	if len(pv) == 0 || len(cv) == 0 {
		return "unresolved"
	}
	pm, cm := median(pv), median(cv)
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	gain := sign * (cm - pm) // positive: the change is better
	if pm != 0 {
		gain /= math.Abs(pm)
	}
	spread := relSpread(pv)
	var wins, pairs int
	for seed, ps := range parent {
		cs := change[seed]
		for i := 0; i < len(ps) && i < len(cs); i++ {
			pairs++
			if sign*(cs[i]-ps[i]) > 0 {
				wins++
			}
		}
	}
	switch {
	case bound > 0 && gain < -bound:
		return "worse"
	case gain > 0 && gain > spread && pairs > 0 && wins*10 >= pairs*9:
		return "better"
	case bound == 0 && gain < 0 && -gain > spread && pairs > 0 && (pairs-wins)*10 >= pairs*9:
		return "worse"
	case pm == cm:
		return "same"
	case bound == 0 || spread > bound || gain > spread:
		return "unresolved"
	}
	return "same"
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: perfbench compare PARENT CHANGE\n\nPARENT and CHANGE are files (or directories of files) holding the output\nof perfbench runs; every \"record \" line in them is one run.")
	}
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		if err == nil {
			fs.Usage()
		}
		return 2
	}
	parent, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	change, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	pg, cg := group(parent), group(change)
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	var wls []string
	for w := range pg {
		wls = append(wls, w)
	}
	sort.Strings(wls)
	fmt.Fprintf(stdout, "%-17s %-29s %-10s %-32s %-32s %8s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "verdict")
	for _, w := range wls {
		for _, d := range defs {
			ps, cs := pg[w][d.name], cg[w][d.name]
			if ps == nil || cs == nil {
				continue
			}
			pv, cv := ps.values(), cs.values()
			p1, p2, p3 := quartiles(pv)
			c1, c2, c3 := quartiles(cv)
			delta := "-"
			if p2 != 0 {
				delta = fmt.Sprintf("%+.2f%%", (c2-p2)/math.Abs(p2)*100)
			}
			fmt.Fprintf(stdout, "%-17s %-29s %-10s %-32s %-32s %8s  %s\n", w, d.name, d.unit,
				fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", p2, p1, p3, len(pv)),
				fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", c2, c1, c3, len(cv)),
				delta, verdict(ps, cs, d.better, d.bound))
		}
	}
	return 0
}
