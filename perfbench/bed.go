package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"time"

	"gem"
	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// stream is one sender's open-loop schedule toward one receiver.
type stream struct {
	src, dst int      // host indices
	frameLen int      // bytes
	ids      []uint32 // frame ids in send order
	pattern  []byte   // payload; the first 8 bytes are overwritten by the id
}

// traffic is a workload's generated frames: every frame has an id, a due
// time and a UDP port pair, and belongs to one stream.
type traffic struct {
	due     []float64 // ns; fractional, so latency keeps sub-ns resolution
	ports   []uint32  // srcPort<<16 | dstPort
	streams []stream
}

func (t *traffic) add(s int, due float64, srcPort, dstPort uint16) uint32 {
	id := uint32(len(t.due))
	t.due = append(t.due, due)
	t.ports = append(t.ports, uint32(srcPort)<<16|uint32(dstPort))
	t.streams[s].ids = append(t.streams[s].ids, id)
	return id
}

// newTraffic makes one stream of frameLen-byte frames per (src, dst) pair,
// each with a random payload pattern drawn from rng.
func newTraffic(rng *rand.Rand, frameLen int, pairs [][2]int) *traffic {
	t := &traffic{}
	for _, p := range pairs {
		t.addStream(rng, p[0], p[1], frameLen)
	}
	return t
}

// addStream adds a stream of frameLen-byte frames from src to dst and
// returns its index.
func (t *traffic) addStream(rng *rand.Rand, src, dst, frameLen int) int {
	pat := make([]byte, frameLen-idOffset)
	rng.Read(pat[8:])
	t.streams = append(t.streams, stream{src: src, dst: dst, frameLen: frameLen, pattern: pat})
	return len(t.streams) - 1
}

// interval is the time one frame of frameLen bytes takes at rateBps,
// framing overhead included, in ns.
func interval(frameLen int, rateBps float64) float64 {
	return float64(frameLen+wire.EthernetFramingOverhead) * 8 / rateBps * 1e9
}

// schedule returns n due times at mean spacing gap starting at a random
// offset within one gap. jitter in [0,1] spreads each spacing uniformly
// over gap*(1±jitter/2), so frames bunch and queue as real senders do.
func schedule(rng *rand.Rand, n int, gap, jitter, start float64) []float64 {
	out := make([]float64, n)
	at := start + rng.Float64()*gap
	for i := range out {
		out[i] = at
		at += gap * (1 - jitter/2 + jitter*rng.Float64())
	}
	return out
}

// expectation derives what the checkers hold every frame to; dst gives the
// IPv4 destination each frame must carry on arrival.
func (t *traffic) expectation(ordered bool, dst func(id uint32, s *stream) wire.IP4) *expectation {
	n := len(t.due)
	e := &expectation{
		stream: make([]int32, n), seq: make([]int32, n), dst: make([]wire.IP4, n),
		sums: make([]uint32, len(t.streams)), ordered: ordered,
	}
	for si := range t.streams {
		s := &t.streams[si]
		e.sums[si] = crc32.Checksum(s.pattern[8:], castagnoli)
		for k, id := range s.ids {
			e.stream[id], e.seq[id] = int32(si), int32(k)
			e.dst[id] = dst(id, s)
		}
	}
	return e
}

// hostIP is the address gem.New gives host i.
func hostIP(i int) wire.IP4 { return netsim.NewHost("", uint32(i+1)).IP }

// start schedules every stream's frames on the testbed's engine. Each
// frame is injected at the first whole ns at or after its due time.
func (t *traffic) start(tb *gem.Testbed, sendFails *int64) {
	for si := range t.streams {
		s := &t.streams[si]
		src, dst, port := tb.Hosts[s.src], tb.Hosts[s.dst], tb.HostPort(s.src)
		k := 0
		var send func()
		send = func() {
			if !port.Send(t.frame(s, s.ids[k], src, dst)) {
				*sendFails++
			}
			if k++; k < len(s.ids) {
				tb.Engine.ScheduleAt(dueAt(t.due[s.ids[k]]), send)
			}
		}
		tb.Engine.ScheduleAt(dueAt(t.due[s.ids[0]]), send)
	}
}

// frame builds frame id of stream s, sent from src to dst, in a pool buffer.
func (t *traffic) frame(s *stream, id uint32, src, dst *netsim.Host) []byte {
	p := t.ports[id]
	f := wire.BuildDataFrameInto(wire.DefaultPool, src.MAC, dst.MAC, src.IP, dst.IP,
		uint16(p>>16), uint16(p), s.frameLen, s.pattern)
	binary.BigEndian.PutUint64(f[idOffset:], uint64(id))
	return f
}

func dueAt(ns float64) sim.Time { return sim.Time(math.Ceil(ns)) }

// logReceivers records every frame delivered to the given hosts.
func logReceivers(tb *gem.Testbed, log *[]delivery, hosts ...int) {
	for _, h := range hosts {
		tb.Hosts[h].Handler = func(_ *netsim.Port, frame []byte) {
			*log = append(*log, recordOf(frame, int64(tb.Now())))
		}
	}
}

// latencies returns each frame's one-way latency, from its due time to its
// first delivery, and the time from the first due frame to the last
// delivery (the round's simulated makespan), both in ns.
func latencies(t *traffic, log []delivery, buf []float64) (lat []float64, makespan float64) {
	first := make([]bool, len(t.due))
	lat = buf[:0]
	var last int64
	for _, d := range log {
		if int(d.id) >= len(t.due) || first[d.id] {
			continue
		}
		first[d.id] = true
		lat = append(lat, float64(d.at)-t.due[d.id])
		if d.at > last {
			last = d.at
		}
	}
	start := math.Inf(1)
	for _, d := range t.due {
		start = math.Min(start, d)
	}
	return lat, float64(last) - start
}

// timer accumulates the host time spent in calls of one kind.
type timer struct {
	ns    int64
	calls int64
}

func (t *timer) since(start time.Time) {
	t.ns += int64(time.Since(start))
	t.calls++
}

// tracer holds the benchmark's timers around the calls it makes into the
// program. The set-up timers always run (a handful of calls per round);
// the per-packet ones only when on is set, in traced rounds.
type tracer struct {
	on bool

	dispatch  timer // Dispatcher.Dispatch, per switch pipeline pass
	primitive timer // PacketBuffer.Admit / StateStore.UpdateFlow / LookupTable.Lookup

	newTestbed timer // gem.New
	establish  timer // Testbed.Establish
	primSetup  timer // primitive construction and table population
}

// newBed is gem.New under the set-up timer.
func (tc *tracer) newBed(opts gem.Options) (*gem.Testbed, error) {
	t := time.Now()
	tb, err := gem.New(opts)
	tc.newTestbed.since(t)
	return tb, err
}

// install sets the switch program: RDMA responses go to the dispatcher,
// every other parsed frame to fn. It is Testbed.SetPipeline with the
// dispatcher call timed in traced rounds.
func (tc *tracer) install(tb *gem.Testbed, fn func(ctx *gem.Context)) {
	tb.Switch.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if tc.on {
			t := time.Now()
			ok := tb.Dispatcher.Dispatch(ctx)
			tc.dispatch.since(t)
			if ok {
				return
			}
		} else if tb.Dispatcher.Dispatch(ctx) {
			return
		}
		if ctx.Pkt == nil || ctx.Pkt.IsRoCE {
			ctx.Drop()
			return
		}
		fn(ctx)
	})
}

// inputs are a workload's generated frames and what the checkers hold them
// to, plus the buffers every round reuses, so that allocating them is not
// part of any round's set-up.
type inputs struct {
	tr  *traffic
	exp *expectation
	lat []float64
	log []delivery
}

func newInputs(tr *traffic, exp *expectation) inputs {
	return inputs{tr: tr, exp: exp, lat: make([]float64, 0, len(tr.due)), log: make([]delivery, 0, len(tr.due)+64)}
}

// base is the part of a round every workload shares: the testbed, the
// delivery log and the pool state at set-up.
type base struct {
	in          *inputs
	tb          *gem.Testbed
	log         []delivery
	pool        wire.PoolStats
	sendFails   int64
	regionBytes int
	mangled     int64 // see bedFacts
}

func newBase(in *inputs) base {
	return base{in: in, pool: wire.DefaultPool.Stats(), log: in.log[:0]}
}

// establish opens one channel of spec to each of the first n servers.
func (b *base) establish(tc *tracer, n int, spec gem.ChannelSpec) ([]*gem.Channel, error) {
	chans := make([]*gem.Channel, n)
	for i := range chans {
		t := time.Now()
		ch, err := b.tb.Establish(i, spec)
		tc.establish.since(t)
		if err != nil {
			return nil, err
		}
		chans[i] = ch
		b.regionBytes += spec.RegionSize
	}
	return chans, nil
}

func (b *base) run() { b.tb.Run() }

// outcome checks what every workload checks and collects the counters
// every layer reports. It returns the verdict on the delivery log for the
// caller to judge, since only the caller knows which failures, if any, are
// the named fault.
func (b *base) outcome() (outcome, deliveryVerdict) {
	tb := b.tb
	o := outcome{ops: len(b.in.tr.due), events: tb.Engine.Executed}
	v := checkDeliveries(b.in.exp, b.log)
	pool := wire.DefaultPool.Stats()
	o.problems = bedFacts{
		serverCPUOps:  tb.ServerCPUOps(),
		mangled:       b.mangled,
		poolDrift:     pool.Balance() - b.pool.Balance(),
		pendingEvents: tb.PendingEvents(),
	}.problems()
	if b.sendFails != 0 {
		o.problems = append(o.problems, fmt.Sprintf("host ports refused %d frames", b.sendFails))
	}
	o.lat, o.makespan = latencies(b.in.tr, b.log, b.in.lat)

	var nic rnic.Stats
	for _, n := range tb.MemNICs {
		nic.ExecAtomics += n.Stats.ExecAtomics
		nic.ReadBytes += n.Stats.ReadBytes
		nic.WriteBytes += n.Stats.WriteBytes
	}
	peak := 0
	for i := 0; i < tb.Switch.NumPorts(); i++ {
		peak = max(peak, tb.Switch.QueuePeak(i))
	}
	snap := tb.Stats()
	tp := snap.Transport
	o.layer = map[string]float64{
		"wire.pool_misses":        float64(pool.Misses - b.pool.Misses),
		"switchsim.buffer_drops":  float64(tb.Switch.Stats.BufferDrops),
		"switchsim.peak_queue_kb": float64(peak) / 1e3,
		"rnic.region_mb":          float64(b.regionBytes) / 1e6,
		"rnic.atomics":            float64(nic.ExecAtomics),
		"rnic.read_bytes":         float64(nic.ReadBytes),
		"rnic.write_bytes":        float64(nic.WriteBytes),
		"verbs.posted":            float64(tp.Read.Posted + tp.Write.Posted + tp.FetchAdd.Posted),
		"verbs.retried":           float64(tp.Read.Retried + tp.Write.Retried + tp.FetchAdd.Retried),
		"verbs.expired":           float64(tp.Read.Expired + tp.Write.Expired + tp.FetchAdd.Expired),
		"core.rt.retransmits":     float64(snap.Retransmits),
		"rnic.server_cpu_ops":     float64(tb.ServerCPUOps()),
		// Primitive-specific counters read 0 where the primitive is absent.
		"core.pb.read_retries":    0,
		"core.pb.max_depth":       0,
		"core.ss.updates_per_faa": 0,
		"core.lt.cache_hit_ratio": 0,
		"core.rt.rexmit_per_faa":  0,
	}
	return o, v
}
