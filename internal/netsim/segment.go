// Package netsim models hosts, NICs, links and the packet path of a data
// center server at segment granularity.
//
// Granularity note (paper §4.6): the production tc hook observes socket
// buffers — up to 64 KB segments before NIC segmentation offload on egress
// and after offloaded reassembly on ingress. We simulate wire segments of at
// most MSS bytes (default 9000, jumbo-frame sized) end to end: the switch
// buffers them, links serialize them, and the tc-style filter hook observes
// them. An optional GRO aggregator (see Host.EnableGRO) coalesces
// back-to-back segments of one flow before the ingress hook to reproduce the
// 64 KB-inflation effect the paper reports at 100 µs sampling.
//
// Event cost: a segment pays one simulator event per hop that changes state
// and none for serialization. Host.Send commits the segment to its NIC
// (Link.Transmit) and hands the Forwarder the segment together with the
// instant it will be on the wire, so a topology schedules the next stateful
// arrival directly; Link.Send and ForwarderFunc are the wire-time forms for
// a standalone link and a bare host. DESIGN.md, "Packet path: one event per
// hop", has the argument for why that reorders nothing.
package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// HostID identifies a simulated machine. Rack-local servers and remote
// (fabric-side) hosts share one ID space per testbed.
type HostID int32

// GroupID identifies a rack-local multicast group.
type GroupID int32

// FlowKey is the 4-tuple identifying a transport connection. All simulated
// traffic is TCP-like, so no protocol field is needed.
type FlowKey struct {
	Src, Dst         HostID
	SrcPort, DstPort uint16
}

// Reverse returns the key of the opposite direction of the same connection.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// Hash returns a 64-bit hash of the flow key. It is symmetric-free (direction
// sensitive), matching receive-side scaling, which hashes the tuple as seen
// on the wire.
func (k FlowKey) Hash() uint64 {
	h := uint64(14695981039346656037) // FNV offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(uint32(k.Src)))
	mix(uint64(uint32(k.Dst)))
	mix(uint64(k.SrcPort)<<16 | uint64(k.DstPort))
	// Finalize with an avalanche so low bits depend on all input bits; the
	// RSS core index is taken modulo a small core count.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%d:%d->%d:%d", k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Flags mark TCP control bits and the Meta-specific retransmit signal.
type Flags uint8

const (
	// FlagSYN marks connection establishment.
	FlagSYN Flags = 1 << iota
	// FlagFIN marks connection teardown.
	FlagFIN
	// FlagACK marks a pure acknowledgement (no payload).
	FlagACK
	// FlagRetx is the unused-IP-header bit Meta's TCP instrumentation sets on
	// the first outgoing packet of a connection after a timeout or fast
	// retransmit (paper §4.2). Millisampler counts bytes of packets carrying
	// it as retransmitted bytes.
	FlagRetx
	// FlagECT marks the packet ECN-capable (sender uses an ECN transport).
	FlagECT
	// FlagCE is the congestion-experienced mark set by a switch whose queue
	// exceeds the ECN threshold.
	FlagCE
	// FlagMulticast routes the packet to a rack-local multicast group rather
	// than a unicast destination.
	FlagMulticast
)

// Segment is one unit of traffic on the simulated wire: headers plus up to
// MSS payload bytes. Segments are passed by pointer along the path; the
// switch may replicate multicast segments.
type Segment struct {
	Flow  FlowKey
	Group GroupID // destination group when FlagMulticast is set
	Seq   int64   // first payload byte's sequence number
	Ack   int64   // cumulative ACK carried by this segment
	Size  int     // total wire bytes, headers included
	Flags Flags

	// EnqueuedShared records how many bytes of this segment were accounted
	// against the shared pool when the switch admitted it; used on dequeue.
	EnqueuedShared int

	// StackArrival is the engine time the segment entered the receiving
	// host's NIC (Host.Inject). The host-stack latency tap (Host.SetStackTap)
	// reads it at socket delivery to measure how long the segment spent
	// inside the host — stall holds and GRO coalescing included. Zero means
	// "not yet stamped"; re-injection after a soft-irq stall preserves the
	// original arrival.
	StackArrival sim.Time

	// pooled marks a segment created by a SegmentPool; only those are
	// recycled on release. freed marks a pooled segment currently sitting in
	// a free list, backing the simdebug double-free/use-after-free checks.
	pooled bool
	freed  bool
}

// Payload returns the payload byte count (wire size minus header overhead).
func (s *Segment) Payload() int {
	p := s.Size - HeaderBytes
	if p < 0 {
		return 0
	}
	return p
}

// Is reports whether all bits in f are set.
func (s *Segment) Is(f Flags) bool { return s.Flags&f == f }

// Wire constants. HeaderBytes approximates Ethernet+IP+TCP framing.
const (
	// HeaderBytes is the fixed per-segment overhead.
	HeaderBytes = 66
	// DefaultMSS is the default maximum payload per wire segment. Meta racks
	// run jumbo frames; 9000-byte units also keep event counts tractable.
	DefaultMSS = 9000
	// GROMaxBytes is the largest coalesced segment the ingress hook can see
	// when GRO aggregation is enabled, per the kernel's 64 KB limit.
	GROMaxBytes = 65536
)
