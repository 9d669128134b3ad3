package simnet

import "fmt"

// PacketHandler consumes a delivered packet.
type PacketHandler func(pkt Packet)

// Host is a network endpoint with a port space shared by all transports.
type Host struct {
	net           *Network
	addr          Addr
	ports         map[uint16]PacketHandler
	nextEphemeral uint16
	// gen counts Unbind calls: a Route reuses the handler it last found
	// here only while gen is unchanged.
	gen uint32
}

// Scheduler returns the scheduler driving the owning network.
func (h *Host) Scheduler() *Scheduler { return h.net.sched }

// Bind registers fn on a well-known port.
func (h *Host) Bind(port uint16, fn PacketHandler) error {
	if _, ok := h.ports[port]; ok {
		return fmt.Errorf("simnet: %s port %d already bound", h.addr, port)
	}
	h.ports[port] = fn
	return nil
}

// The ephemeral port range, 49152–65535.
const (
	ephemeralFirst = 49152
	ephemeralPorts = 1<<16 - ephemeralFirst
)

// BindEphemeral registers fn on a fresh ephemeral port and returns it.
// It panics when every ephemeral port is bound: a leak that size is a
// bug that should fail loudly rather than spin.
func (h *Host) BindEphemeral(fn PacketHandler) uint16 {
	for range ephemeralPorts {
		p := h.nextEphemeral
		h.nextEphemeral++
		if h.nextEphemeral == 0 {
			h.nextEphemeral = ephemeralFirst
		}
		if _, ok := h.ports[p]; !ok {
			h.ports[p] = fn
			return p
		}
	}
	panic(fmt.Sprintf("simnet: host %q has no free ephemeral port", h.addr))
}

// Unbind releases a port. Unbinding a free port is a no-op.
func (h *Host) Unbind(port uint16) {
	delete(h.ports, port)
	h.gen++
}

// Route returns the directed path from h to dst, resolving it on first
// use. A connection holds its route for its lifetime, so its per-packet
// sends look nothing up.
func (h *Host) Route(dst Addr) *Route { return h.net.route(h.addr, dst) }

// Send transmits a packet from srcPort to dst:dstPort. It finds the
// route by address on every call; senders of more than a stray packet
// hold a Route instead.
func (h *Host) Send(srcPort uint16, dst Addr, dstPort uint16, size int, payload any) {
	h.net.route(h.addr, dst).Send(srcPort, dstPort, size, payload)
}
