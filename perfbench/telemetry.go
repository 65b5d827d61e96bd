package main

import (
	"math/rand"
	"time"

	"gem"
	"gem/internal/flowgen"
	"gem/internal/wire"
)

// telemetry-faa: 4 sender→receiver pairs send 64 B frames at 38 Gbps each
// over Zipf(1.1) flows; a Strict state store striped over 2 servers counts
// every packet with Fetch-and-Add. Per-packet cost dominates and almost no
// payload bytes move.
const (
	telemetryPairs    = 4
	telemetryServers  = 2
	telemetryFrameLen = 64
	telemetryFrames   = 100_000 // per sender
	telemetryFlows    = 16384   // per sender
	telemetryCounters = 16384
)

type telemetry struct {
	inputs
	want []uint64 // the benchmark's own count per counter
}

func newTelemetry(seed int64) *telemetry {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int, telemetryPairs)
	for i := range pairs {
		pairs[i] = [2]int{i, telemetryPairs + i}
	}
	tr := newTraffic(rng, telemetryFrameLen, pairs)
	want := make([]uint64, telemetryCounters)
	gap := interval(telemetryFrameLen, 38e9)
	for s, p := range pairs {
		// The counter each flow lands on, by the switch's placement rule.
		index := make([]int, telemetryFlows)
		for f := range index {
			sp, dp := flowgen.FlowID(f)
			key := wire.FlowKey{SrcIP: hostIP(p[0]), DstIP: hostIP(p[1]), Protocol: wire.ProtoUDP, SrcPort: sp, DstPort: dp}
			index[f] = key.Index(telemetryCounters)
		}
		zipf := rand.NewZipf(rng, 1.1, 1, telemetryFlows-1)
		for _, due := range schedule(rng, telemetryFrames, gap, 1, 0) {
			f := int(zipf.Uint64())
			sp, dp := flowgen.FlowID(f)
			tr.add(s, due, sp, dp)
			want[index[f]]++
		}
	}
	exp := tr.expectation(true, func(_ uint32, s *stream) wire.IP4 { return hostIP(s.dst) })
	return &telemetry{inputs: newInputs(tr, exp), want: want}
}

type telemetryBed struct {
	base
	w  *telemetry
	ss *gem.StateStore
}

func (w *telemetry) setup(tc *tracer) (bed, error) {
	b := &telemetryBed{base: newBase(&w.inputs), w: w}
	tb, err := tc.newBed(gem.Options{Hosts: 2 * telemetryPairs, MemoryServers: telemetryServers})
	if err != nil {
		return nil, err
	}
	b.tb = tb
	chans, err := b.establish(tc, telemetryServers, gem.ChannelSpec{RegionSize: telemetryCounters / telemetryServers * 8})
	if err != nil {
		return nil, err
	}
	t := time.Now()
	ss, err := gem.NewStripedStateStore(chans, gem.StateStoreConfig{Counters: telemetryCounters, PendingSlots: telemetryCounters})
	tc.primSetup.since(t)
	if err != nil {
		return nil, err
	}
	b.ss = ss
	for _, ch := range chans {
		tb.Dispatcher.Register(ch, ss)
	}
	tc.install(tb, func(ctx *gem.Context) {
		if tc.on {
			t := time.Now()
			ss.UpdateFlow(wire.FlowOf(ctx.Pkt))
			tc.primitive.since(t)
		} else {
			ss.UpdateFlow(wire.FlowOf(ctx.Pkt))
		}
		// gem.New numbers host i's MAC i+1, and host i sits on switch port i.
		ctx.Emit(int(ctx.Pkt.Eth.Dst[5])-1, ctx.Frame)
	})
	receivers := make([]int, telemetryPairs)
	for i := range receivers {
		receivers[i] = telemetryPairs + i
	}
	logReceivers(tb, &b.log, receivers...)
	w.tr.start(tb, &b.sendFails)
	return b, nil
}

// remoteCounters dumps every counter of a store from server memory.
func remoteCounters(tb *gem.Testbed, ss *gem.StateStore, n int) ([]uint64, error) {
	out := make([]uint64, n)
	for i := range out {
		ch, off := ss.CounterHome(i)
		v, err := tb.ReadRemoteCounter(ch, off)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (b *telemetryBed) finish() outcome {
	o, v := b.outcome()
	if v.failures() > 0 {
		o.problems = append(o.problems, "deliveries: "+v.String())
	}
	remote, err := remoteCounters(b.tb, b.ss, telemetryCounters)
	if err != nil {
		o.problems = append(o.problems, "counters: "+err.Error())
	} else if cv := checkCounters(b.w.want, remote, b.ss.PendingTotal()); !cv.ok() {
		o.problems = append(o.problems, "counters: "+cv.String())
	}
	if b.ss.Stats.FAAIssued > 0 {
		o.layer["core.ss.updates_per_faa"] = float64(b.ss.Stats.Updates) / float64(b.ss.Stats.FAAIssued)
	}
	return o
}
