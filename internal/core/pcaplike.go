package core

import (
	"encoding/binary"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// PcapLike is the strawman Millisampler is compared against in §4.3: a
// tcpdump-style collector that snapshots the first SnapLen bytes of every
// packet into a kernel-to-user ring buffer for later user-space parsing.
// Its per-packet cost is dominated by the header copy, and a full ring drops
// packets — both failure modes the paper cites for rejecting packet capture
// at fleet scale. It exists for the BenchmarkPcapLikeBaseline comparison and
// for tests; it is not used by any analysis.
type PcapLike struct {
	// SnapLen is the per-packet snapshot length (tcpdump -s 100 in the
	// paper's measurement).
	SnapLen int
	ring    []byte
	head    int
	used    int
	// Captured counts packets stored; Dropped counts ring overruns.
	Captured uint64
	Dropped  uint64
}

// NewPcapLike builds a collector with the given snapshot length and ring
// capacity in packets.
func NewPcapLike(snapLen, ringPackets int) *PcapLike {
	if snapLen <= 0 {
		snapLen = 100
	}
	if ringPackets <= 0 {
		ringPackets = 4096
	}
	return &PcapLike{SnapLen: snapLen, ring: make([]byte, snapLen*ringPackets)}
}

// Handle implements netsim.Filter: serialize a pseudo-header snapshot of the
// segment into the ring, the work tcpdump's BPF+copy path performs per
// packet.
func (p *PcapLike) Handle(now sim.Time, dir netsim.Direction, seg *netsim.Segment) {
	if p.used+p.SnapLen > len(p.ring) {
		p.Dropped++
		return
	}
	buf := p.ring[p.head : p.head+p.SnapLen]
	binary.LittleEndian.PutUint64(buf[0:8], uint64(now))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(seg.Flow.Src))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(seg.Flow.Dst))
	binary.LittleEndian.PutUint16(buf[16:18], seg.Flow.SrcPort)
	binary.LittleEndian.PutUint16(buf[18:20], seg.Flow.DstPort)
	binary.LittleEndian.PutUint64(buf[20:28], uint64(seg.Seq))
	binary.LittleEndian.PutUint64(buf[28:36], uint64(seg.Ack))
	binary.LittleEndian.PutUint32(buf[36:40], uint32(seg.Size))
	buf[40] = byte(seg.Flags)
	buf[41] = byte(dir)
	// The remainder of the snapshot models payload-prefix bytes tcpdump
	// copies regardless of use.
	for i := 42; i < p.SnapLen; i++ {
		buf[i] = 0
	}
	p.head += p.SnapLen
	p.used += p.SnapLen
	p.Captured++
}

// Drain empties the ring (the user-space reader catching up) and returns how
// many packets were pending.
func (p *PcapLike) Drain() int {
	n := p.used / p.SnapLen
	p.head = 0
	p.used = 0
	return n
}
