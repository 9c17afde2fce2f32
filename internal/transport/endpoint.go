package transport

import (
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Endpoint is the transport stack of one host: it demultiplexes incoming
// segments to connections and originates new ones. Install exactly one
// Endpoint per host; it registers itself as the host's protocol handler.
type Endpoint struct {
	host     *netsim.Host
	eng      *sim.Engine
	conns    map[uint64]*Conn // keyed by Endpoint.key; the authority
	nextPort uint16

	// socks is the early-demux slot table: socks[c.slot] == c exactly while
	// c is in conns. Slot 0 stays empty, so an unstamped segment misses.
	socks []*Conn
	free  []uint32 // vacated slots, reused last in first out

	// OnAccept, if set, fires when a passive connection is created by an
	// incoming SYN, letting the application attach its callbacks.
	OnAccept func(c *Conn)
}

// NewEndpoint attaches a transport stack to host.
func NewEndpoint(host *netsim.Host) *Endpoint {
	ep := &Endpoint{
		host:     host,
		eng:      host.Engine(),
		conns:    make(map[uint64]*Conn),
		nextPort: 10000,
		socks:    make([]*Conn, 1),
	}
	host.SetProtocolHandler(ep.receive)
	return ep
}

// key packs a connection into the one word its lookups hash (a 12-byte
// FlowKey costs a memhash per segment): the peer's HostID (non-negative, so
// 31 bits), a role bit set when this host sends the data, and both
// data-direction ports of flow, the data-direction 4-tuple. The role bit
// keeps apart two hosts' connections to each other over the same port pair.
func (e *Endpoint) key(sender bool, flow netsim.FlowKey) uint64 {
	self, peer, role := flow.Dst, flow.Src, uint64(0)
	if sender {
		self, peer, role = flow.Src, flow.Dst, 1
	}
	if demuxDebug && (self != e.host.ID || peer < 0) {
		panic(fmt.Sprintf("transport: host %d is not the end of flow %v (sender %v) it demuxes", e.host.ID, flow, sender))
	}
	return uint64(peer)<<33 | role<<32 | uint64(flow.SrcPort)<<16 | uint64(flow.DstPort)
}

// Host returns the endpoint's host.
func (e *Endpoint) Host() *netsim.Host { return e.host }

// ConnCount returns the number of live connections (either role).
func (e *Endpoint) ConnCount() int { return len(e.conns) }

// Connect opens a sending connection to dst:dstPort and starts the
// handshake. Data queued with Send flows once the handshake completes.
func (e *Endpoint) Connect(dst netsim.HostID, dstPort uint16, opts Options) *Conn {
	flow := netsim.FlowKey{Src: e.host.ID, Dst: dst, DstPort: dstPort}
	// The ephemeral port wraps; like Linux's allocator, skip any port whose
	// connection to dst:dstPort is still open rather than replace it.
	var k uint64
	for tries := 0; ; tries++ {
		if tries > math.MaxUint16 {
			panic(fmt.Sprintf("transport: host %d has no free port to %d:%d", e.host.ID, dst, dstPort))
		}
		e.nextPort++
		flow.SrcPort = e.nextPort
		k = e.key(true, flow)
		if _, live := e.conns[k]; !live {
			break
		}
	}
	c := &Conn{
		ep:        e,
		flow:      flow,
		rev:       flow.Reverse(),
		sender:    true,
		cc:        newDCTCP(mss, opts.initialWindow()),
		rto:       rtoInit,
		startedAt: e.eng.Now(),
	}
	e.insert(k, c)
	c.sendSYN()
	return c
}

// receive is the host protocol handler. It tries the segment's socket slot
// first (early) and consults the connection map only when that misses.
func (e *Endpoint) receive(seg *netsim.Segment) {
	if seg.Is(netsim.FlagMulticast) {
		// Multicast beacons are measurement traffic with no transport state.
		return
	}
	// An ACK is control for one of our sending connections; anything else is
	// the data direction, where we are (or become) the receiver.
	ack := seg.Is(netsim.FlagACK)
	c := e.early(seg, ack)
	if c == nil || demuxDebug {
		flow := seg.Flow
		if ack {
			flow = flow.Reverse()
		}
		k := e.key(ack, flow)
		m := e.conns[k]
		if demuxDebug && c != nil && m != c {
			panic(fmt.Sprintf("transport: host %d: slot %d gives segment %v to flow %v, not to the map's connection", e.host.ID, seg.DstSock, seg.Flow, c.flow))
		}
		if c = m; c == nil {
			if ack || !seg.Is(netsim.FlagSYN) {
				// Stray control or data for a closed connection; ignore
				// silently, matching a RST-free simplified stack.
				return
			}
			c = &Conn{ep: e, flow: flow, rev: flow.Reverse()}
			e.insert(k, c)
			if e.OnAccept != nil {
				e.OnAccept(c)
			}
		}
	}
	c.peer = seg.SrcSock
	switch {
	case ack:
		c.onAckSegment(seg)
	case seg.Is(netsim.FlagFIN):
		c.flushDelack()
		c.sendAck(seg)
		e.remove(c)
	default:
		c.onDataSegment(seg)
	}
}

// early returns the connection in seg's DstSock slot when it is exactly the
// one the map would return: the same role and the same flow mean the same
// key, and a slot is occupied only while its connection is in the map.
func (e *Endpoint) early(seg *netsim.Segment, ack bool) *Conn {
	if s := seg.DstSock; s < uint32(len(e.socks)) {
		if c := e.socks[s]; c != nil && c.sender == ack {
			in := c.flow // the flow c receives: its data, or ACKs of its data
			if ack {
				in = c.rev
			}
			if seg.Flow == in {
				return c
			}
		}
	}
	return nil
}

// insert registers c under k and gives it a socket slot. Connect never
// reuses a live key, so nothing is ever replaced.
func (e *Endpoint) insert(k uint64, c *Conn) {
	if demuxDebug {
		if _, dup := e.conns[k]; dup {
			panic(fmt.Sprintf("transport: host %d: %v would replace a live connection", e.host.ID, c.flow))
		}
	}
	e.conns[k] = c
	if n := len(e.free); n > 0 {
		c.slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.socks[c.slot] = c
		return
	}
	c.slot = uint32(len(e.socks))
	e.socks = append(e.socks, c)
}

// remove forgets c and frees its slot. Removing a connection twice is a
// no-op, so a receiver the FIN already removed may still be closed.
func (e *Endpoint) remove(c *Conn) {
	if c.slot == 0 {
		return
	}
	delete(e.conns, e.key(c.sender, c.flow))
	e.socks[c.slot] = nil
	e.free = append(e.free, c.slot)
	c.slot = 0
}
