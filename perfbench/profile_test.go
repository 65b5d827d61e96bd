package main

import (
	"bytes"
	"hash/crc32"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		fn     string
		bucket string
		final  bool
	}{
		{"gem/internal/sim.eventHeap.Less", "sim", true},
		{"gem/internal/core/verbs.(*QP).AppendExpired", "verbs", true},
		{"gem/internal/core.(*StateStore).Update", "core", true},
		{"gem.(*Testbed).Stats", "core", true},
		{"gem/internal/faults.(*LinkFaults).Transmit", "netsim", true},
		{"gem/internal/fifo.(*Queue[go.shape.[]uint8]).Push", "other", true},
		{"gem/internal/switchsim.(*CacheTable[go.shape.struct { gem/internal/wire.SrcIP }]).Put", "switchsim", true},
		{"main.recordOf", "bench", true},
		{"runtime.memclrNoHeapPointers", "runtime.memclr", true},
		{"runtime.mallocgc", "runtime.malloc", true},
		{"runtime.scanobject", "runtime.gc", true},
		{"runtime.memmove", "other", false},
		{"container/heap.down", "other", false},
		{"hash/crc32.castagnoliSSE42", "other", false},
	}
	for _, c := range cases {
		if b, final := bucketOf(c.fn); b != c.bucket || final != c.final {
			t.Errorf("bucketOf(%q) = %q, %v; want %q, %v", c.fn, b, final, c.bucket, c.final)
		}
	}
}

var sink uint32

// A real CPU profile of work done in this package, through a standard
// library helper, must land in the bench bucket.
func TestAddProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	data := make([]byte, 1<<16)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sink += crc32.ChecksumIEEE(data)
	}
	pprof.StopCPUProfile()
	self := map[string]float64{}
	if err := addProfile(self, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, ns := range self {
		total += ns
	}
	if total == 0 || self["bench"] < total/2 {
		t.Fatalf("busy loop not attributed to bench: %v", self)
	}
	if err := addProfile(self, []byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}
