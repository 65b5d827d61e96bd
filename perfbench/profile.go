package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the layers whose CPU self time the traced run reports, named
// by their directory under internal/ (core/verbs reported as verbs).
// internal/faults, the fault models the link layer calls, counts toward
// netsim, and the gem facade toward core. bench is the benchmark itself.
var modules = []string{"sim", "wire", "netsim", "switchsim", "rnic", "verbs", "core", "bench", "other"}

// bucketOf maps a profiled function to its bucket. final is false for
// standard-library and runtime helpers outside the garbage collector,
// allocator and memory clearing (memmove, map access, container/heap,
// CRC tables): their time belongs to the module that called them.
func bucketOf(fn string) (bucket string, final bool) {
	pkg := fn
	if i := strings.IndexAny(pkg, "(["); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch pkg {
	case "main", "gem/perfbench": // the latter in test binaries
		return "bench", true
	case "gem":
		return "core", true
	case "gem/internal/core/verbs":
		return "verbs", true
	case "gem/internal/faults":
		return "netsim", true
	case "runtime":
		if b := runtimeBucket(fn); b != "" {
			return b, true
		}
		return "other", false
	}
	if mod, ok := strings.CutPrefix(pkg, "gem/internal/"); ok {
		for _, m := range modules {
			if m == mod {
				return m, true
			}
		}
		return "other", true
	}
	return "other", false
}

// runtimeBucket names the runtime's garbage collection, allocation and
// memory clearing buckets, or returns "" for the rest of the runtime.
func runtimeBucket(fn string) string {
	name := strings.TrimPrefix(fn, "runtime.")
	switch {
	case strings.HasPrefix(name, "memclr"):
		return "runtime.memclr"
	case strings.HasPrefix(name, "mallocgc"), strings.HasPrefix(name, "nextFree"),
		strings.HasPrefix(name, "(*mcache)"), strings.HasPrefix(name, "(*mcentral)"),
		strings.HasPrefix(name, "(*mheap)"), strings.HasPrefix(name, "newobject"),
		strings.HasPrefix(name, "makeslice"), strings.HasPrefix(name, "growslice"),
		strings.HasPrefix(name, "(*mspan)"), strings.HasPrefix(name, "heapSetType"),
		strings.HasPrefix(name, "(*pageAlloc)"), strings.HasPrefix(name, "sysAlloc"):
		return "runtime.malloc"
	case strings.HasPrefix(name, "gc"), strings.HasPrefix(name, "scanobject"),
		strings.HasPrefix(name, "scanblock"), strings.HasPrefix(name, "greyobject"),
		strings.HasPrefix(name, "markroot"), strings.HasPrefix(name, "findObject"),
		strings.HasPrefix(name, "(*gcWork)"), strings.HasPrefix(name, "(*gcBits)"),
		strings.HasPrefix(name, "sweepone"), strings.HasPrefix(name, "bgsweep"),
		strings.HasPrefix(name, "(*sweepLocked)"), strings.HasPrefix(name, "wbBuf"),
		strings.HasPrefix(name, "bulkBarrier"), strings.HasPrefix(name, "typePointers"),
		strings.HasPrefix(name, "(*unwinder)"), strings.HasPrefix(name, "scanstack"),
		strings.HasPrefix(name, "scanframe"), strings.HasPrefix(name, "spanOf"),
		strings.HasPrefix(name, "(*gcControllerState)"), strings.HasPrefix(name, "markBits"):
		return "runtime.gc"
	}
	return ""
}

// addProfile adds the CPU time of every sample in a gzipped pprof CPU
// profile to self, keyed by bucket (ns). A sample goes to the innermost
// frame of its stack whose bucket is final (see bucketOf), or to other.
func addProfile(self map[string]float64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	valueIdx := p.sampleTypes - 1 // CPU profiles: samples/count, cpu/nanoseconds
	if valueIdx < 0 {
		return errors.New("profile has no sample types")
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || valueIdx >= len(s.values) {
			continue
		}
		self[p.bucket(s.locs)] += float64(s.values[valueIdx])
	}
	return nil
}

// profile is the part of the pprof protocol buffer the aggregation needs
// (github.com/google/pprof/proto/profile.proto).
type profile struct {
	sampleTypes int
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id → function ids, innermost first
	funcNames   map[uint64]int64    // function id → string table index
	strings     []string
}

// bucket walks a stack from the leaf and returns the first final bucket.
func (p *profile) bucket(locs []uint64) string {
	for _, loc := range locs {
		for _, f := range p.locFuncs[loc] {
			if b, final := bucketOf(p.strings[p.funcNames[f]]); final {
				return b
			}
		}
	}
	return "other"
}

type sample struct {
	locs   []uint64
	values []int64
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s sample
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return varints(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcNames {
		if n < 0 || int(n) >= len(p.strings) {
			return nil, fmt.Errorf("function name index %d outside string table", n)
		}
	}
	return p, nil
}

// fields walks the fields of one protocol buffer message, calling fn with
// the field number and either its varint value or its length-delimited
// bytes (data is nil for varints).
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", typ)
		}
	}
	return nil
}

// varints delivers a repeated integer field, packed (data set) or not.
func varints(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
