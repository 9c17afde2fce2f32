package transport

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Endpoint is the transport stack of one host: it demultiplexes incoming
// segments to connections and originates new ones. Install exactly one
// Endpoint per host; it registers itself as the host's protocol handler.
type Endpoint struct {
	host     *netsim.Host
	eng      *sim.Engine
	conns    map[uint64]*Conn // keyed by Endpoint.key
	nextPort uint16

	// OnAccept, if set, fires when a passive connection is created by an
	// incoming SYN, letting the application attach OnReceive.
	OnAccept func(c *Conn)
}

// NewEndpoint attaches a transport stack to host.
func NewEndpoint(host *netsim.Host) *Endpoint {
	ep := &Endpoint{
		host:     host,
		eng:      host.Engine(),
		conns:    make(map[uint64]*Conn),
		nextPort: 10000,
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
	opts = opts.withDefaults()
	e.nextPort++
	flow := netsim.FlowKey{
		Src: e.host.ID, Dst: dst,
		SrcPort: e.nextPort, DstPort: dstPort,
	}
	c := &Conn{
		ep:        e,
		flow:      flow,
		sender:    true,
		opts:      opts,
		cc:        opts.newCC(),
		rto:       opts.RTOInit,
		startedAt: e.eng.Now(),
	}
	e.conns[e.key(true, flow)] = c
	c.sendSYN()
	return c
}

// receive is the host protocol handler.
func (e *Endpoint) receive(seg *netsim.Segment) {
	if seg.Is(netsim.FlagMulticast) {
		// Multicast beacons are measurement traffic with no transport state.
		return
	}
	if seg.Is(netsim.FlagACK) {
		// Control for one of our sending connections.
		if c, ok := e.conns[e.key(true, seg.Flow.Reverse())]; ok {
			c.onAckSegment(seg)
		}
		return
	}
	// Data direction: we are (or become) the receiver.
	k := e.key(false, seg.Flow)
	c, ok := e.conns[k]
	if !ok {
		if !seg.Is(netsim.FlagSYN) {
			// Stray data for a closed connection; ignore silently, matching
			// a RST-free simplified stack.
			return
		}
		c = &Conn{
			ep:     e,
			flow:   seg.Flow,
			sender: false,
			opts:   Options{}.withDefaults(),
		}
		e.conns[k] = c
		if e.OnAccept != nil {
			e.OnAccept(c)
		}
	}
	if seg.Is(netsim.FlagFIN) {
		c.flushDelack()
		c.sendAck(seg)
		delete(e.conns, k)
		return
	}
	c.onDataSegment(seg)
}

// remove forgets c.
func (e *Endpoint) remove(c *Conn) {
	delete(e.conns, e.key(c.sender, c.flow))
}
