package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"gem/internal/wire"
)

// The checkers in this file judge a round from what it left behind — a
// delivery log, a counter dump, a few end-of-run facts — against what the
// benchmark itself generated. None of them consults the program's own
// counters for the verdict, so a fault that the program fails to count
// still shows.

// idOffset is where the generator writes a frame's id: the first UDP
// payload byte. The rest of the payload is the sending stream's pattern.
const idOffset = wire.EthernetLen + wire.IPv4Len + wire.UDPLen

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// delivery is one frame as a receiver saw it.
type delivery struct {
	id  uint32
	at  int64    // simulated delivery time, ns
	sum uint32   // CRC32-C of the payload after the id
	dst wire.IP4 // IPv4 destination on arrival
}

// recordOf reads what the checkers need from a delivered frame. A frame
// too short to carry an id gets id ^0, which matches no generated frame.
func recordOf(frame []byte, at int64) delivery {
	if len(frame) < idOffset+8 {
		return delivery{id: ^uint32(0), at: at}
	}
	var d delivery
	d.id = uint32(binary.BigEndian.Uint64(frame[idOffset:]))
	d.at = at
	d.sum = crc32.Checksum(frame[idOffset+8:], castagnoli)
	copy(d.dst[:], frame[wire.EthernetLen+16:wire.EthernetLen+20])
	return d
}

// expectation is what the generator promised for every frame id.
type expectation struct {
	stream []int32    // stream of each id
	seq    []int32    // position of each id within its stream
	dst    []wire.IP4 // destination each id must carry on arrival
	sums   []uint32   // payload CRC of each stream
	// ordered says frames of one stream must arrive in the order sent.
	ordered bool
}

// deliveryVerdict classifies every generated frame from a delivery log.
type deliveryVerdict struct {
	frames     int
	once       int
	lost       []uint32
	duplicated []uint32
	reordered  int
	badPayload int
	badHeader  int
	unknown    int
}

// failures counts frames not delivered exactly once, intact and in order.
func (v *deliveryVerdict) failures() int {
	return len(v.lost) + len(v.duplicated) + v.reordered + v.badPayload + v.badHeader + v.unknown
}

func (v *deliveryVerdict) String() string {
	return fmt.Sprintf("frames=%d once=%d lost=%d duplicated=%d reordered=%d bad_payload=%d bad_header=%d unknown=%d",
		v.frames, v.once, len(v.lost), len(v.duplicated), v.reordered, v.badPayload, v.badHeader, v.unknown)
}

// checkDeliveries compares a delivery log with the generator's expectation.
func checkDeliveries(exp *expectation, log []delivery) deliveryVerdict {
	n := len(exp.stream)
	v := deliveryVerdict{frames: n}
	seen := make([]uint8, n)
	last := make([]int32, len(exp.sums))
	for i := range last {
		last[i] = -1
	}
	for _, d := range log {
		if int(d.id) >= n {
			v.unknown++
			continue
		}
		if seen[d.id] < 255 {
			seen[d.id]++
		}
		if seen[d.id] > 1 {
			continue // classified once below; content of a repeat is not judged
		}
		s := exp.stream[d.id]
		if d.sum != exp.sums[s] {
			v.badPayload++
		}
		if d.dst != exp.dst[d.id] {
			v.badHeader++
		}
		if exp.ordered {
			if exp.seq[d.id] < last[s] {
				v.reordered++
			} else {
				last[s] = exp.seq[d.id]
			}
		}
	}
	for id, c := range seen {
		switch {
		case c == 0:
			v.lost = append(v.lost, uint32(id))
		case c == 1:
			v.once++
		default:
			v.duplicated = append(v.duplicated, uint32(id))
		}
	}
	return v
}

// slotRaces explains lost and duplicated lookup packets by the deposit-slot
// race: two misses on one table entry in flight at once, where the later
// deposit overwrites the earlier one before the first READ lands. A lost
// packet is explained when a duplicated packet with the same entry index
// was due after it, within window ns. It returns the number of frames so
// explained and whether every lost and duplicated frame was.
func slotRaces(lost, duplicated []uint32, index []int32, due []float64, window float64) (explained int, all bool) {
	byIndex := make(map[int32][]uint32, len(duplicated))
	for _, id := range duplicated {
		byIndex[index[id]] = append(byIndex[index[id]], id)
	}
	used := make(map[uint32]bool, len(duplicated))
	for _, a := range lost {
		match := false
		for _, b := range byIndex[index[a]] {
			if gap := due[b] - due[a]; gap > 0 && gap <= window {
				match = true
				if !used[b] {
					used[b] = true
					explained++
				}
			}
		}
		if !match {
			return explained, false
		}
		explained++
	}
	return explained, len(used) == len(duplicated)
}

// counterVerdict compares remote counters with the benchmark's own counts.
type counterVerdict struct {
	counters  int
	wrong     int
	firstBad  int
	remoteSum uint64
	wantSum   uint64
	pending   uint64
}

func (v counterVerdict) ok() bool { return v.wrong == 0 && v.pending == 0 }

func (v counterVerdict) String() string {
	s := fmt.Sprintf("counters=%d wrong=%d remote_sum=%d want_sum=%d pending=%d",
		v.counters, v.wrong, v.remoteSum, v.wantSum, v.pending)
	if v.wrong > 0 {
		s += fmt.Sprintf(" first_wrong=%d", v.firstBad)
	}
	return s
}

// checkCounters compares a dump of the remote counters, plus whatever the
// switch still holds back, with the benchmark's own per-counter counts.
// Every update must have reached remote memory: nothing may stay pending.
func checkCounters(want, remote []uint64, pending uint64) counterVerdict {
	v := counterVerdict{counters: len(want), firstBad: -1, pending: pending}
	if len(remote) != len(want) {
		v.wrong = len(want)
		return v
	}
	for i := range want {
		v.wantSum += want[i]
		v.remoteSum += remote[i]
		if remote[i] != want[i] {
			if v.wrong == 0 {
				v.firstBad = i
			}
			v.wrong++
		}
	}
	return v
}

// bedFacts are end-of-round properties every workload must have.
type bedFacts struct {
	serverCPUOps  int64 // software operations on the memory servers
	mangled       int64 // request frames corruption turned into non-RDMA frames for a server
	poolDrift     int64 // pool buffers checked out minus those at setup
	pendingEvents int   // events left after the run
}

// problems lists the facts that do not hold. The memory servers' CPUs may
// run only for request frames the fault model corrupted into frames that
// no longer parse as RDMA, which their NICs hand to software.
func (f bedFacts) problems() []string {
	var p []string
	if f.serverCPUOps > f.mangled {
		p = append(p, fmt.Sprintf("memory servers ran %d CPU operations for %d mangled frames", f.serverCPUOps, f.mangled))
	}
	if f.poolDrift != 0 {
		p = append(p, fmt.Sprintf("frame pool unbalanced by %d buffers", f.poolDrift))
	}
	if f.pendingEvents != 0 {
		p = append(p, fmt.Sprintf("%d events pending after the run", f.pendingEvents))
	}
	return p
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
