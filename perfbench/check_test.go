package main

import (
	"math/rand"
	"testing"

	"gem/internal/netsim"
	"gem/internal/wire"
)

// twoStreams generates 2 streams of 5 frames each and the log of their
// clean delivery, in send order per stream.
func twoStreams(t *testing.T, frameLen int) (*traffic, *expectation, []delivery) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tr := newTraffic(rng, frameLen, [][2]int{{0, 2}, {1, 2}})
	for k := 0; k < 5; k++ {
		for s := 0; s < 2; s++ {
			tr.add(s, float64(10*k+s), uint16(1000+k), 9999)
		}
	}
	hosts := []*netsim.Host{netsim.NewHost("a", 1), netsim.NewHost("b", 2), netsim.NewHost("c", 3)}
	exp := tr.expectation(true, func(_ uint32, s *stream) wire.IP4 { return hosts[s.dst].IP })
	var log []delivery
	for k := 0; k < 5; k++ {
		for s := range tr.streams {
			st := &tr.streams[s]
			f := tr.frame(st, st.ids[k], hosts[st.src], hosts[st.dst])
			log = append(log, recordOf(f, int64(100+len(log))))
			wire.DefaultPool.Put(f)
		}
	}
	return tr, exp, log
}

func TestCheckDeliveriesClean(t *testing.T) {
	for _, n := range []int{64, 1500} {
		_, exp, log := twoStreams(t, n)
		if v := checkDeliveries(exp, log); v.failures() != 0 || v.once != 10 {
			t.Fatalf("%d B: clean log flagged: %v", n, &v)
		}
	}
}

// Every kind of damage to a delivery log must be flagged: a checker that
// cannot fail proves nothing.
func TestCheckDeliveriesFlagsEachFault(t *testing.T) {
	cases := []struct {
		name   string
		damage func(tr *traffic, log []delivery) []delivery
		count  func(v *deliveryVerdict) int
	}{
		{"dropped", func(_ *traffic, log []delivery) []delivery { return append(log[:3], log[4:]...) },
			func(v *deliveryVerdict) int { return len(v.lost) }},
		{"duplicated", func(_ *traffic, log []delivery) []delivery { return append(log, log[5]) },
			func(v *deliveryVerdict) int { return len(v.duplicated) }},
		{"reordered", func(_ *traffic, log []delivery) []delivery {
			log[0], log[2] = log[2], log[0] // two frames of stream 0
			return log
		}, func(v *deliveryVerdict) int { return v.reordered }},
		{"payload byte flipped", func(tr *traffic, log []delivery) []delivery {
			st := &tr.streams[1]
			f := tr.frame(st, st.ids[2], netsim.NewHost("b", 2), netsim.NewHost("c", 3))
			f[len(f)-1] ^= 0x10
			log[5] = recordOf(f, log[5].at)
			wire.DefaultPool.Put(f)
			return log
		}, func(v *deliveryVerdict) int { return v.badPayload }},
		{"wrong destination", func(_ *traffic, log []delivery) []delivery {
			log[7].dst[3]++
			return log
		}, func(v *deliveryVerdict) int { return v.badHeader }},
		{"foreign frame", func(_ *traffic, log []delivery) []delivery {
			return append(log, recordOf(make([]byte, 20), 0))
		}, func(v *deliveryVerdict) int { return v.unknown }},
	}
	for _, c := range cases {
		tr, exp, log := twoStreams(t, 128)
		v := checkDeliveries(exp, c.damage(tr, log))
		if c.count(&v) != 1 || v.failures() == 0 {
			t.Errorf("%s: not flagged exactly once: %v", c.name, &v)
		}
	}
}

// A wrong lookup action shows as a wrong destination on the delivered frame.
func TestCheckDeliveriesFlagsWrongLookupAction(t *testing.T) {
	w := newLookup(3)
	st := &w.tr.streams[2]
	id := st.ids[0]
	f := w.tr.frame(st, id, netsim.NewHost("a", 1), netsim.NewHost("b", 2))
	defer wire.DefaultPool.Put(f)
	var log []delivery
	for _, action := range []wire.IP4{w.action(int(w.index[id])), w.action(int(w.index[id]) + 1)} {
		copy(f[wire.EthernetLen+16:], action[:]) // what the switch's action rewrites
		log = append(log[:0], recordOf(f, 0))
		exp := *w.exp
		exp.stream, exp.seq, exp.dst = exp.stream[id:id+1], exp.seq[id:id+1], exp.dst[id:id+1]
		log[0].id = 0
		v := checkDeliveries(&exp, log)
		if right := action == w.action(int(w.index[id])); right != (v.failures() == 0) || !right && v.badHeader != 1 {
			t.Errorf("action %v (right=%v): %v", action, right, &v)
		}
	}
}

func TestSlotRaces(t *testing.T) {
	index := []int32{5, 5, 7, 7, 9}
	due := []float64{0, 58, 100, 5000, 200}
	// The probe pattern: the first of two close packets on one entry lost,
	// the second delivered twice.
	if n, all := slotRaces([]uint32{0}, []uint32{1}, index, due, 1000); n != 2 || !all {
		t.Errorf("probe pair: explained %d, all %v", n, all)
	}
	// Too far apart for both to be in flight at once.
	if _, all := slotRaces([]uint32{2}, []uint32{3}, index, due, 1000); all {
		t.Error("pair beyond the window explained")
	}
	// A loss with no duplicate on its entry is not the race.
	if _, all := slotRaces([]uint32{4}, nil, index, due, 1000); all {
		t.Error("plain loss explained")
	}
	// A duplicate with no loss on its entry is not the race either.
	if _, all := slotRaces(nil, []uint32{1}, index, due, 1000); all {
		t.Error("plain duplicate explained")
	}
}

func TestCheckCounters(t *testing.T) {
	want := []uint64{3, 0, 9, 1}
	if v := checkCounters(want, []uint64{3, 0, 9, 1}, 0); !v.ok() {
		t.Fatalf("exact counters flagged: %v", v)
	}
	if v := checkCounters(want, []uint64{3, 0, 10, 1}, 0); v.ok() || v.wrong != 1 || v.firstBad != 2 {
		t.Errorf("counter off by one: %v", v)
	}
	if v := checkCounters(want, []uint64{3, 0, 8, 1}, 1); v.ok() {
		t.Errorf("update still pending in the switch passed: %v", v)
	}
	if v := checkCounters(want, []uint64{3, 0, 9}, 0); v.ok() {
		t.Errorf("short dump passed: %v", v)
	}
}

func TestBedFacts(t *testing.T) {
	if p := (bedFacts{}).problems(); len(p) != 0 {
		t.Fatalf("clean facts flagged: %v", p)
	}
	if p := (bedFacts{serverCPUOps: 3, mangled: 3}).problems(); len(p) != 0 {
		t.Errorf("CPU work on mangled frames flagged: %v", p)
	}
	for _, f := range []bedFacts{{serverCPUOps: 1}, {serverCPUOps: 4, mangled: 3}, {poolDrift: 1}, {poolDrift: -1}, {pendingEvents: 1}} {
		if len(f.problems()) != 1 {
			t.Errorf("%+v not flagged", f)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(xs, 0.99); got != 4.96 {
		t.Errorf("p99 = %v", got)
	}
}
