package main

import (
	"fmt"
	"math/rand"
	"time"

	"gem"
	"gem/internal/flowgen"
	"gem/internal/wire"
)

// lookup-miss: 256 B frames at 38 Gbps over Zipf(1.1) across 200,000 flows
// against a remote table of 200,000 entries in deposit mode behind a
// 16,384-entry SRAM cache. Misses WRITE the packet into its entry and READ
// the entry back, so the miss count and the cache hit ratio set the work.
//
// Deposit mode has a known fault: when two misses on one entry are in
// flight at once, the later deposit can overwrite the earlier one before
// the first READ executes; one packet is then forwarded twice and the
// other never, and no counter records either. With every frame 256 B the
// server's READ of an entry (266 B) always finishes before the next WRITE
// to it (258 B) commits, so the Zipf stream cannot hit the fault. A fixed
// probe, the same on every seed, does: at the start of every round,
// lookupProbes times, a 256 B packet is followed back to back by a 64 B
// packet of the same flow, whose shorter WRITE commits first. Each probe
// loses the first packet and duplicates the second; those are the
// workload's failed operations.
const (
	lookupEntries  = 200_000
	lookupFlows    = 200_000
	lookupCache    = 16384
	lookupFrameLen = 256
	lookupFrames   = 200_000
	lookupProbes   = 4
	lookupProbeLen = 64
	lookupProbeGap = 5_000.0 // ns between probes, and before the Zipf stream
)

type lookup struct {
	inputs
	index    []int32 // table entry of every frame's flow
	probeIDs int     // ids below this belong to the probe
	action   func(idx int) wire.IP4
}

var lookupConfig = gem.LookupConfig{
	Entries: lookupEntries, MaxPktBytes: lookupFrameLen, CacheEntries: lookupCache, Mode: gem.LookupDeposit,
}

func newLookup(seed int64) *lookup {
	rng := rand.New(rand.NewSource(seed))
	src, dst := 0, 1
	tr := &traffic{}
	// The probe's streams come first so that its frames take the lowest ids.
	probeA := tr.addStream(rng, src, dst, lookupFrameLen)
	probeB := tr.addStream(rng, src, dst, lookupProbeLen)
	zipfStream := tr.addStream(rng, src, dst, lookupFrameLen)
	w := &lookup{action: func(idx int) wire.IP4 {
		// The destination the benchmark writes into entry idx.
		return wire.IP4FromUint32(0x0b000000 | uint32(idx*2654435761+int(seed))&0xffffff)
	}}
	add := func(s int, due float64, f int) {
		sp, dp := flowgen.FlowID(f)
		key := wire.FlowKey{SrcIP: hostIP(src), DstIP: hostIP(dst), Protocol: wire.ProtoUDP, SrcPort: sp, DstPort: dp}
		tr.add(s, due, sp, dp)
		w.index = append(w.index, int32(key.Index(lookupEntries)))
	}
	gap := interval(lookupFrameLen, 38e9)
	for p := 0; p < lookupProbes; p++ {
		at := float64(p) * lookupProbeGap
		add(probeA, at, lookupFlows+p) // flows outside the Zipf range
		add(probeB, at+gap, lookupFlows+p)
	}
	w.probeIDs = len(tr.due)
	zipf := rand.NewZipf(rng, 1.1, 1, lookupFlows-1)
	for _, due := range schedule(rng, lookupFrames, gap, 1, lookupProbes*lookupProbeGap) {
		add(zipfStream, due, int(zipf.Uint64()))
	}
	w.inputs = newInputs(tr, tr.expectation(false, func(id uint32, _ *stream) wire.IP4 { return w.action(int(w.index[id])) }))
	return w
}

type lookupBed struct {
	base
	w  *lookup
	lt *gem.LookupTable
}

func (w *lookup) setup(tc *tracer) (bed, error) {
	b := &lookupBed{base: newBase(&w.inputs), w: w}
	tb, err := tc.newBed(gem.Options{Hosts: 2, MemoryServers: 1})
	if err != nil {
		return nil, err
	}
	b.tb = tb
	cfg := lookupConfig
	chans, err := b.establish(tc, 1, gem.ChannelSpec{RegionSize: lookupEntries * cfg.EntrySize()})
	if err != nil {
		return nil, err
	}
	t := time.Now()
	lt, err := gem.NewLookupTable(chans[0], cfg)
	if err == nil {
		region := tb.Region(chans[0])
		for idx := 0; idx < lookupEntries && err == nil; idx++ {
			err = gem.PopulateLookupEntry(region, cfg, idx, gem.SetDstIPAction(w.action(idx)))
		}
	}
	tc.primSetup.since(t)
	if err != nil {
		return nil, err
	}
	b.lt = lt
	lt.DefaultOutPort = tb.SwitchPortOfHost(1)
	tb.Dispatcher.Register(chans[0], lt)
	tc.install(tb, func(ctx *gem.Context) {
		if tc.on {
			t := time.Now()
			lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
			tc.primitive.since(t)
			return
		}
		lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
	})
	logReceivers(tb, &b.log, 1)
	w.tr.start(tb, &b.sendFails)
	return b, nil
}

func (b *lookupBed) finish() outcome {
	o, v := b.outcome()
	if n := v.failures() - len(v.lost) - len(v.duplicated); n > 0 {
		o.problems = append(o.problems, "deliveries: "+v.String())
	}
	explained, all := slotRaces(v.lost, v.duplicated, b.w.index, b.w.tr.due, lookupProbeGap/2)
	if !all {
		o.problems = append(o.problems, "lost or duplicated packets the deposit-slot race does not explain: "+v.String())
	}
	for _, ids := range [][]uint32{v.lost, v.duplicated} {
		for _, id := range ids {
			if int(id) >= b.w.probeIDs {
				o.problems = append(o.problems, fmt.Sprintf("deposit-slot race outside the probe (frame %d)", id))
				break
			}
		}
	}
	o.failed = explained
	s := b.lt.Stats
	if n := s.CacheHits + s.RemoteLookups; n > 0 {
		o.layer["core.lt.cache_hit_ratio"] = float64(s.CacheHits) / float64(n)
	}
	return o
}
