package main

import (
	"math/rand"
	"time"

	"gem"
	"gem/internal/faults"
	"gem/internal/flowgen"
	"gem/internal/sim"
	"gem/internal/wire"
)

// lossy-recovery: every frame of a 64 B stream counts into one of 1,024
// remote counters striped over 2 servers, through reliable FAAs (PSN-strict
// channels, ACK requested, one adaptive-RTO retransmitter per server). Both
// directions of every memory link lose frames in Gilbert–Elliott bursts,
// requests are corrupted and jittered, and each server crashes once and
// restarts with its memory intact. Only here do retransmission, NAK resync
// and the fault models do the work.
const (
	lossyServers  = 2
	lossyFrameLen = 64
	lossyFrames   = 200_000
	lossyFlows    = 4096
	lossyCounters = 1024
	lossyRateBps  = 10e9
	lossyWindow   = 8
	lossyOutage   = 50 * sim.Microsecond
)

type lossy struct {
	inputs
	want    []uint64
	crashAt []sim.Time // per server
}

func newLossy(seed int64) *lossy {
	rng := rand.New(rand.NewSource(seed))
	src, dst := 0, 1
	tr := newTraffic(rng, lossyFrameLen, [][2]int{{src, dst}})
	want := make([]uint64, lossyCounters)
	index := make([]int, lossyFlows)
	for f := range index {
		sp, dp := flowgen.FlowID(f)
		key := wire.FlowKey{SrcIP: hostIP(src), DstIP: hostIP(dst), Protocol: wire.ProtoUDP, SrcPort: sp, DstPort: dp}
		index[f] = key.Index(lossyCounters)
	}
	gap := interval(lossyFrameLen, lossyRateBps)
	for _, due := range schedule(rng, lossyFrames, gap, 1, 0) {
		f := rng.Intn(lossyFlows)
		sp, dp := flowgen.FlowID(f)
		tr.add(0, due, sp, dp)
		want[index[f]]++
	}
	// Each server crashes once, somewhere in the middle of the stream.
	span := float64(lossyFrames) * gap
	crashAt := make([]sim.Time, lossyServers)
	for i := range crashAt {
		crashAt[i] = sim.Time(span * (0.2 + 0.6*rng.Float64()))
	}
	exp := tr.expectation(true, func(uint32, *stream) wire.IP4 { return hostIP(dst) })
	return &lossy{inputs: newInputs(tr, exp), want: want, crashAt: crashAt}
}

type lossyBed struct {
	base
	w      *lossy
	ss     *gem.StateStore
	links  []*mangleWatch
	losses []*faults.GilbertElliott
}

// mangleWatch is the request-direction fault model of one memory link,
// counting the frames its corruption leaves decodable and addressed to the
// server but no longer RDMA: the server's NIC hands those to software.
type mangleWatch struct {
	*faults.LinkFaults
	server  wire.MAC
	mangled int64
}

func (m *mangleWatch) Transmit(now sim.Time, rng *rand.Rand, frame []byte) (bool, sim.Duration) {
	before := m.Corrupt.Corrupted
	drop, delay := m.LinkFaults.Transmit(now, rng, frame)
	if !drop && m.Corrupt.Corrupted != before {
		var pkt wire.Packet
		if pkt.DecodeFromBytes(frame) == nil && pkt.Eth.Dst == m.server && !pkt.IsRoCE {
			m.mangled++
		}
	}
	return drop, delay
}

func (w *lossy) setup(tc *tracer) (bed, error) {
	b := &lossyBed{base: newBase(&w.inputs), w: w}
	tb, err := tc.newBed(gem.Options{Hosts: 2, MemoryServers: lossyServers})
	if err != nil {
		return nil, err
	}
	b.tb = tb
	chans, err := b.establish(tc, lossyServers, gem.ChannelSpec{
		RegionSize: lossyCounters / lossyServers * 8, Mode: gem.PSNStrict, AckReq: true,
	})
	if err != nil {
		return nil, err
	}
	t := time.Now()
	ss, err := gem.NewStripedStateStore(chans, gem.StateStoreConfig{Counters: lossyCounters})
	for i, ch := range chans {
		if err != nil {
			break
		}
		var rt *gem.Retransmitter
		if rt, err = gem.NewRetransmitter(ch, lossyWindow); err == nil {
			rt.EnableAdaptiveRTO()
			ss.SetShardRetransmitter(i, rt)
			rt.Inner = ss
			tb.Dispatcher.Register(ch, rt)
		}
	}
	tc.primSetup.since(t)
	if err != nil {
		return nil, err
	}
	b.ss = ss
	for i, nic := range tb.MemNICs {
		burst := func() *faults.GilbertElliott {
			g := &faults.GilbertElliott{PGoodToBad: 0.01, PBadToGood: 0.2, LossBad: 0.5}
			b.losses = append(b.losses, g)
			return g
		}
		req := &mangleWatch{server: nic.MAC, LinkFaults: &faults.LinkFaults{
			Loss:    burst(),
			Corrupt: &faults.Corruptor{Rate: 0.02, MaxBits: 4},
			Jitter:  &faults.Jitter{Max: 200 * sim.Nanosecond},
		}}
		b.links = append(b.links, req)
		nic.Port().Peer().SetFaultInjector(req)                        // switch → server
		nic.Port().SetFaultInjector(&faults.LinkFaults{Loss: burst()}) // server → switch
		sched := faults.CrashRestart(nic, w.crashAt[i], w.crashAt[i].Add(lossyOutage))
		sched.Loss = faults.CrashPreserve
		sched.Install(tb.EngineOf(nic))
	}
	tc.install(tb, func(ctx *gem.Context) {
		if tc.on {
			t := time.Now()
			ss.UpdateFlow(wire.FlowOf(ctx.Pkt))
			tc.primitive.since(t)
		} else {
			ss.UpdateFlow(wire.FlowOf(ctx.Pkt))
		}
		ctx.Emit(tb.SwitchPortOfHost(1), ctx.Frame)
	})
	logReceivers(tb, &b.log, 1)
	w.tr.start(tb, &b.sendFails)
	return b, nil
}

func (b *lossyBed) finish() outcome {
	for _, l := range b.links {
		b.mangled += l.mangled
	}
	o, v := b.outcome()
	if v.failures() > 0 {
		o.problems = append(o.problems, "deliveries: "+v.String())
	}
	remote, err := remoteCounters(b.tb, b.ss, lossyCounters)
	if err != nil {
		o.problems = append(o.problems, "counters: "+err.Error())
	} else if cv := checkCounters(b.w.want, remote, b.ss.PendingTotal()); !cv.ok() {
		o.problems = append(o.problems, "counters: "+cv.String())
	}
	var dropped, corrupted int64
	for _, g := range b.losses {
		dropped += g.Drops
	}
	for _, l := range b.links {
		corrupted += l.Corrupt.Corrupted
	}
	rexmit := o.layer["core.rt.retransmits"]
	if dropped == 0 || corrupted == 0 || rexmit == 0 {
		o.problems = append(o.problems, "the faults did not bite: no drop, corruption or retransmission")
	}
	if faa := b.ss.Stats.FAAIssued; faa > 0 {
		o.layer["core.ss.updates_per_faa"] = float64(b.ss.Stats.Updates) / float64(faa)
		o.layer["core.rt.rexmit_per_faa"] = rexmit / float64(faa)
	}
	return o
}
