// Command perfbench is the repository benchmark. It runs one workload's
// cells through harness.RunE, one at a time in this process, checks the
// simulator's outputs, and prints every metric by name with its unit
// and direction. The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
//
//	perfbench --workload xalanc-table3 --seed 1 --seconds 40 --trace 0
//	perfbench compare PARENT CHANGE
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// minUntraced and minPairs are the fewest repetitions a run measures
// however short --seconds is, so every reported host time is a median.
const (
	minUntraced = 3
	minPairs    = 2
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	spansDir string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload to run (xalanc-table3, fleet-saturated, service-failover)")
	fs.Uint64Var(&c.seed, "seed", 1, "seed the workload inputs are made from")
	fs.IntVar(&c.seconds, "seconds", 40, "seconds of repetitions to measure")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&c.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "directory the traced run's spans are written to (empty: keep them in memory only)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case c.seconds < 1:
		return c, fmt.Errorf("--seconds must be at least 1, got %d", c.seconds)
	case c.trace != 0 && c.trace != 1:
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", c.trace)
	}
	_, err := findWorkload(c.workload)
	return c, err
}

// provenance identifies the host and build a result came from.
type provenance struct {
	Go          string `json:"go"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NProc       int    `json:"nproc"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
}

func getProvenance() provenance {
	p := provenance{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		VCSRevision: "unknown", VCSModified: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.VCSRevision = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value
			}
		}
	}
	return p
}

// metricValue is one metric of the result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// cellRecord identifies one cell of a run.
type cellRecord struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params"`
	Digest string         `json:"digest"`
}

// record is a run's full self-description, printed on a "record " line
// for compare mode.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Trace      int                    `json:"trace"`
	Provenance provenance             `json:"provenance"`
	Cells      []cellRecord           `json:"cells"`
	Untraced   []float64              `json:"untraced_wall_s"`
	Traced     []float64              `json:"traced_wall_s"`
	Metrics    map[string]metricValue `json:"metrics"`
	Reported   map[string]metricValue `json:"reported"`
	Attempted  uint64                 `json:"attempted"`
	Failed     uint64                 `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
		return 2
	}
	w, _ := findWorkload(cfg.workload)
	cells := w.cells(cfg.seed)
	prov := getProvenance()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "provenance go=%s gomaxprocs=%d nproc=%d vcs.revision=%s vcs.modified=%s\n",
		prov.Go, prov.GOMAXPROCS, prov.NProc, prov.VCSRevision, prov.VCSModified)

	var gate checker
	var untraced, traced []rep
	buckets := map[string]int64{}
	start := time.Now()
	budget := time.Duration(cfg.seconds) * time.Second
	// measuring reports whether another k repetitions as long as the
	// last one still fit in --seconds (or fewer than least have run),
	// so a run ends close to --seconds instead of overshooting it.
	measuring := func(n, least, k int, last time.Duration) bool {
		return n < least || time.Since(start)+time.Duration(k)*last <= budget
	}
	// Each repetition is gated as soon as it ends. Only the first
	// untraced one keeps its results after that, so neither the Go heap
	// nor peak_rss_mb grows with the number of repetitions.
	addUntraced := func(r rep) {
		if len(untraced) == 0 {
			gate.checkUntraced(cells, r, nil)
		} else {
			gate.checkUntraced(cells, r, &untraced[0])
			r.dropResults()
		}
		untraced = append(untraced, r)
	}
	addTraced := func(r rep) {
		gate.checkTraced(cells, r, untraced[0])
		r.dropResults()
		// Spans are kept for the first traced repetition (the
		// simulated cycle percentiles) and the last (written out).
		if n := len(traced); n > 1 {
			traced[n-1].dropSpans()
		}
		traced = append(traced, r)
	}
	var rssMB float64
	var last time.Duration
	if cfg.trace == 0 {
		// Room is left for the traced repetition that follows.
		for measuring(len(untraced), minUntraced, 2, last) {
			t0 := time.Now()
			addUntraced(runRep(cells, false))
			last = time.Since(t0)
		}
		rssMB = peakRSSMB()
		// The traced repetition runs after the timed ones so its span
		// buffers stay out of peak_rss_mb.
		addTraced(runRep(cells, true))
	} else {
		for measuring(len(traced), minPairs, 1, last) {
			t0 := time.Now()
			r, b, err := profiledRep(cells)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			for k, v := range b {
				buckets[k] += v
			}
			addUntraced(r)
			addTraced(runRep(cells, true))
			last = time.Since(t0)
		}
	}
	rec := record{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Provenance: prov,
		Metrics: map[string]metricValue{}, Reported: map[string]metricValue{},
	}
	for i, c := range cells {
		cr := cellRecord{Name: c.name, Params: c.params}
		if untraced[0].cells[i].err == nil {
			cr.Digest = digest(untraced[0].cells[i].res)
		}
		rec.Cells = append(rec.Cells, cr)
		params, err := json.Marshal(cr.Params)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "cell %s digest=%s params=%s\n", cr.Name, cr.Digest, params)
	}
	for _, r := range untraced {
		rec.Untraced = append(rec.Untraced, r.wall.Seconds())
	}
	for _, r := range traced {
		rec.Traced = append(rec.Traced, r.wall.Seconds())
	}
	fmt.Fprintf(stdout, "repetitions untraced=%d traced=%d\n", len(untraced), len(traced))

	for _, i := range offloadCells(cells) {
		if cr := untraced[0].cells[i]; cr.err == nil {
			gate.checkRequests(cr.res)
		}
	}
	defs := endToEnd
	if cfg.trace == 1 {
		defs = perLayer
	}
	vals := map[string]float64{}
	if allRan(untraced, traced) {
		if cfg.trace == 0 {
			vals = endToEndMetrics(cells, untraced, traced[0], rssMB)
		} else {
			vals = perLayerMetrics(cells, untraced, traced, buckets)
			if cfg.spansDir != "" {
				if err := writeSpans(cfg.spansDir, w.name, cells, traced[len(traced)-1]); err != nil {
					fmt.Fprintf(stderr, "perfbench: %v\n", err)
				}
			}
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			gate.check("metric "+d.name, fmt.Errorf("no finite value"))
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(stdout, "metric %-28s %.6g %s (%s is better) [%s]\n", d.name, v, d.unit, d.better, d.layer)
	}
	if cfg.trace == 0 {
		vals["error_rate"] = ratio(float64(gate.failed), float64(gate.attempted))
		for _, d := range reportOnly {
			if v, ok := vals[d.name]; ok {
				rec.Reported[d.name] = metricValue{v, d.unit}
				fmt.Fprintf(stdout, "metric %-28s %.6g %s (%s is better; reported, not gated)\n", d.name, v, d.unit, d.better)
			}
		}
	}
	res.Attempted, res.Failed = gate.attempted, gate.failed
	res.Correct = gate.failed == 0
	rec.Metrics = res.Metrics
	rec.Attempted, rec.Failed, rec.Failures = gate.attempted, gate.failed, gate.failures
	for _, f := range gate.failures {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
	}
	fmt.Fprintf(stdout, "checks attempted=%d failed=%d\n", gate.attempted, gate.failed)
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// allRan reports whether every cell of every repetition completed, so
// the metrics can be computed even though a check failed.
func allRan(reps ...[]rep) bool {
	for _, rs := range reps {
		for _, r := range rs {
			for _, cr := range r.cells {
				if cr.err != nil {
					return false
				}
			}
		}
	}
	return true
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeSpans writes a traced repetition's spans as CSV, one file per
// workload.
func writeSpans(dir, workload string, cells []cell, r rep) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, "spans-"+workload+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "cell,span,name,thread,parent,host_start_ns,host_end_ns,sim_start,sim_end")
	for i, cr := range r.cells {
		for j, s := range cr.tr.spans {
			fmt.Fprintf(bw, "%s,%d,%s,%d,%d,%d,%d,%d,%d\n", cells[i].name, j, spanNames[s.kind],
				s.thread, s.parent, s.hostStart, s.hostEnd, s.simStart, s.simEnd)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
