package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"nextgenmalloc/internal/cache.(*System).Access", "nextgenmalloc/internal/sim.(*Thread).access"}, "cache"},
		{[]string{"runtime.memmove", "nextgenmalloc/internal/mem.(*Physical).Store", "nextgenmalloc/internal/sim.(*Thread).Store"}, "mem"},
		{[]string{"nextgenmalloc/internal/allocators/mimalloc.(*Heap).Malloc"}, "allocators"},
		{[]string{"nextgenmalloc/internal/ring.(*SPSC).TryPush", "nextgenmalloc/internal/core.(*Allocator).Malloc"}, "ring"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "nextgenmalloc/internal/core.New"}, "runtime_gc"},
		{[]string{"runtime.gogo", "runtime.coroswitch_m", "runtime.mcall", "runtime.coroswitch", "iter.Pull[...].func2", "nextgenmalloc/internal/sim.(*Machine).Run"}, "runtime_coro"},
		{[]string{"nextgenmalloc/internal/harness.RunE.func1"}, "other"},
		{[]string{"main.runRep", "main.benchMain"}, "other"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"nextgenmalloc/internal/cache.(*System).Access": "nextgenmalloc/internal/cache",
		"nextgenmalloc/internal/harness.RunE.func1":     "nextgenmalloc/internal/harness",
		"runtime.mallocgc":                              "runtime",
		"iter.Pull[...].func2":                          "iter",
		"main.main":                                     "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileBucketsCoverEverySample profiles a short simulation and
// checks that the buckets account for every sample of the profile.
func TestProfileBucketsCoverEverySample(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		runRep(smallCells()[:1], false)
	}
	pprof.StopCPUProfile()

	buckets, err := bucketProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	var total, bucketed int64
	for _, s := range p.samples {
		total += s.values[0]
	}
	known := map[string]bool{}
	for _, b := range profileBuckets {
		known[b] = true
	}
	for b, n := range buckets {
		if !known[b] {
			t.Errorf("sample bucket %q is not a reported bucket", b)
		}
		bucketed += n
	}
	if total == 0 {
		t.Skip("profile recorded no samples")
	}
	if bucketed != total {
		t.Fatalf("buckets hold %d of %d samples", bucketed, total)
	}
	if buckets["other"] == total {
		t.Fatal("no sample was attributed to a simulator layer")
	}
}
