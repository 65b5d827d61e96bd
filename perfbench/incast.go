package main

import (
	"math/rand"
	"time"

	"gem"
	"gem/internal/rnic"
	"gem/internal/wire"
)

// incast-spill: 8 senders burst 50 MB of 1500 B frames at 40 Gbps each into
// one 40 Gbps port. The packet buffer spills the backlog to a ring striped
// over 8 memory servers (PFC on) and reads it back in order, so full-frame
// WRITEs and READs do most of the work.
const (
	incastSenders   = 8
	incastServers   = 8
	incastFrameLen  = 1500
	incastBurst     = 50 << 20
	incastRegion    = 8 << 20 // per server: holds the whole burst's share with room to spare
	incastEntrySize = incastFrameLen + 4
)

type incast struct{ inputs }

func newIncast(seed int64) *incast {
	rng := rand.New(rand.NewSource(seed))
	recv := incastSenders
	pairs := make([][2]int, incastSenders)
	for i := range pairs {
		pairs[i] = [2]int{i, recv}
	}
	tr := newTraffic(rng, incastFrameLen, pairs)
	perSender := incastBurst / incastFrameLen / incastSenders
	gap := interval(incastFrameLen, 40e9)
	for s := range pairs {
		// Line-rate senders: no jitter, only a random start offset.
		for k, due := range schedule(rng, perSender, gap, 0, 0) {
			tr.add(s, due, uint16(1000+k%8), 9999)
		}
	}
	recvIP := hostIP(recv)
	exp := tr.expectation(true, func(uint32, *stream) wire.IP4 { return recvIP })
	return &incast{newInputs(tr, exp)}
}

type incastBed struct {
	base
	w  *incast
	pb *gem.PacketBuffer
}

func (w *incast) setup(tc *tracer) (bed, error) {
	b := &incastBed{base: newBase(&w.inputs), w: w}
	tb, err := tc.newBed(gem.Options{
		Hosts: incastSenders + 1, MemoryServers: incastServers,
		NIC: rnic.Config{MTU: 4096, EnablePFC: true},
	})
	if err != nil {
		return nil, err
	}
	b.tb = tb
	chans, err := b.establish(tc, incastServers, gem.ChannelSpec{RegionSize: incastRegion})
	if err != nil {
		return nil, err
	}
	recv := incastSenders
	t := time.Now()
	pb, err := gem.NewPacketBuffer(chans, tb.SwitchPortOfHost(recv), gem.PacketBufferConfig{
		EntrySize:           incastEntrySize,
		HighWaterBytes:      1 << 20,
		LowWaterBytes:       512 << 10,
		MaxOutstandingReads: 64,
	})
	tc.primSetup.since(t)
	if err != nil {
		return nil, err
	}
	b.pb = pb
	pb.RegisterWith(tb.Dispatcher)
	tb.Switch.Hooks = pb
	recvMAC := tb.Hosts[recv].MAC
	tc.install(tb, func(ctx *gem.Context) {
		if ctx.Pkt.Eth.Dst != recvMAC {
			ctx.Drop()
			return
		}
		if tc.on {
			t := time.Now()
			pb.Admit(ctx, ctx.Frame)
			tc.primitive.since(t)
			return
		}
		pb.Admit(ctx, ctx.Frame)
	})
	logReceivers(tb, &b.log, recv)
	w.tr.start(tb, &b.sendFails)
	return b, nil
}

func (b *incastBed) finish() outcome {
	o, v := b.outcome()
	if v.failures() > 0 {
		o.problems = append(o.problems, "deliveries: "+v.String())
	}
	o.layer["core.pb.read_retries"] = float64(b.pb.Stats.ReadRetries)
	o.layer["core.pb.max_depth"] = float64(b.pb.Stats.MaxDepth)
	return o
}
