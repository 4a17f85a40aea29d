package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileBuckets are the host.self_share.* buckets: one per simulator
// layer, the Go runtime's coroutine switching and memory management,
// and "other" for the rest (harness, metrics, this benchmark, runtime
// work outside both). Every sample lands in exactly one bucket.
var profileBuckets = []string{
	"sim", "cache", "tlb", "mem", "ring", "core", "allocators",
	"workload", "slo", "fault", "runtime_coro", "runtime_gc", "other",
}

// layerPackages maps an import path under the module to its bucket.
var layerPackages = map[string]string{
	"nextgenmalloc/internal/sim":      "sim",
	"nextgenmalloc/internal/cache":    "cache",
	"nextgenmalloc/internal/tlb":      "tlb",
	"nextgenmalloc/internal/mem":      "mem",
	"nextgenmalloc/internal/ring":     "ring",
	"nextgenmalloc/internal/core":     "core",
	"nextgenmalloc/internal/workload": "workload",
	"nextgenmalloc/internal/slo":      "slo",
	"nextgenmalloc/internal/fault":    "fault",
}

// funcPackage returns the import path of a Go symbol name such as
// "nextgenmalloc/internal/cache.(*System).Access".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isGC reports runtime frames that do memory management: allocation,
// marking, sweeping and scavenging.
func isGC(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.scanobject", "runtime.markroot", "runtime.sweepone", "runtime.mProf_Malloc",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isCoro reports frames that switch between simulated threads (iter.Pull
// coroutines) or park goroutines.
func isCoro(fn string) bool {
	for _, p := range []string{
		"runtime.coro", "iter.Pull", "runtime.mcall", "runtime.gopark", "runtime.park_m",
		"runtime.schedule", "runtime.goready", "runtime.gogo",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// bucketOf assigns one sample, given its stack leaf first. The frames
// from the leaf up to the first frame of this module decide: memory
// management or coroutine switching there is charged to the runtime
// bucket; otherwise the sample is that module frame's layer (so a
// runtime.memmove called by the cache model is cache time).
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime_gc"
		}
		if isCoro(fn) {
			return "runtime_coro"
		}
		pkg := funcPackage(fn)
		if !strings.HasPrefix(pkg, "nextgenmalloc/") {
			continue
		}
		if b, ok := layerPackages[pkg]; ok {
			return b
		}
		if strings.HasPrefix(pkg, "nextgenmalloc/internal/allocators/") {
			return "allocators"
		}
		return "other"
	}
	return "other"
}

// bucketProfile decodes a gzipped pprof CPU profile and returns the
// sample count per bucket.
func bucketProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				stack = append(stack, p.str(p.funcName[fid]))
			}
		}
		if len(s.values) > 0 {
			out[bucketOf(stack)] += s.values[0]
		}
	}
	return out, nil
}

// pprofile holds the parts of a profile.proto message the bucketing
// reads.
type pprofile struct {
	samples  []psample
	locLines map[uint64][]uint64 // location -> function ids, innermost first
	funcName map[uint64]int64    // function -> string table index
	strings  []string
}

type psample struct {
	locs   []uint64
	values []int64
}

func (p *pprofile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

// pbFields splits a protobuf message into fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// decodeProfile reads samples, locations, functions and the string
// table of a profile.proto message.
func decodeProfile(raw []byte) (*pprofile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &pprofile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s psample
			for _, sf := range fs {
				vs, err := sf.varints()
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // Line
					ls, err := pbFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							funcs = append(funcs, l.v)
						}
					}
				}
			}
			p.locLines[id] = funcs
		case 5: // Function
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(f.b))
		}
	}
	return p, nil
}
