package enb

import (
	"errors"
	"sync"

	"repro/internal/epc"
)

// Bearer is the downlink user-plane queue for one UE: packets from the
// core wait as (size, enqueue time) pairs, and scheduler grants (bits
// served per TTI) drain the queue in order. It converts the
// scheduler's abstract bit credits into byte-accurate packet delivery
// with enqueue→delivery timestamps, which the traffic subsystem turns
// into per-UE delay/loss KPIs. Packet contents never matter to the
// model, so none are kept: the simulation enqueues arrival sizes
// directly, and GTP-U PDUs from a real S1-U peer are decapsulated at
// the boundary (DeliverGTPUAt).
type Bearer struct {
	mu sync.Mutex

	tunnel *epc.Tunnel
	queue  []queuedPacket
	// creditBits is the accumulated unspent scheduler grant; a packet
	// leaves the queue only when its full size fits the credit.
	creditBits float64
	// Delivered counts packets and bytes handed to the UE.
	DeliveredPackets uint64
	DeliveredBytes   uint64
	// Dropped counts queue-overflow discards; DroppedBytes their
	// payload volume.
	Dropped      uint64
	DroppedBytes uint64
	// peakQueue is the maximum queue depth seen since creation.
	peakQueue int
	// MaxQueue bounds the queue length (default 256 packets).
	MaxQueue int
}

// queuedPacket is one backlogged IP packet: its size and enqueue
// timestamp.
type queuedPacket struct {
	bytes int
	at    float64
}

// Delivery is one packet that completed transmission: its size and
// its enqueue timestamp, so callers can compute the queueing delay.
type Delivery struct {
	Bytes      int
	EnqueuedAt float64
}

// ErrQueueOverflow is returned when the bearer queue is full and the
// arriving packet is tail-dropped. The drop is already counted when
// the error is returned; callers that only care about transport
// validity can treat it as non-fatal.
var ErrQueueOverflow = errors.New("enb: bearer queue overflow, packet dropped")

// NewBearer returns a bearer bound to the session's GTP tunnel.
func NewBearer(sess *epc.Session) *Bearer {
	return &Bearer{tunnel: epc.NewTunnel(sess.TEID), MaxQueue: 256}
}

// Tunnel exposes the underlying GTP tunnel (for the core side to
// encapsulate towards).
func (b *Bearer) Tunnel() *epc.Tunnel { return b.tunnel }

// DeliverGTPUAt accepts a GTP-U PDU from the core, validates it
// against the bearer's TEID and enqueues the inner packet stamped with
// the arrival time. Overflow drops the newest packet (tail drop),
// counts it — packets and bytes — and reports ErrQueueOverflow.
func (b *Bearer) DeliverGTPUAt(pdu []byte, now float64) error {
	inner, err := b.tunnel.Decap(pdu)
	if err != nil {
		return err
	}
	if !b.Enqueue(len(inner), now) {
		return ErrQueueOverflow
	}
	return nil
}

// Enqueue offers one packet of size bytes that arrived at time at. It
// reports false when the queue is full: the packet is tail-dropped and
// counted, packets and bytes.
func (b *Bearer) Enqueue(size int, at float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	max := b.MaxQueue
	if max <= 0 {
		max = 256
	}
	if len(b.queue) >= max {
		b.Dropped++
		b.DroppedBytes += uint64(size)
		return false
	}
	b.queue = append(b.queue, queuedPacket{bytes: size, at: at})
	if len(b.queue) > b.peakQueue {
		b.peakQueue = len(b.queue)
	}
	return true
}

// QueuedPackets returns the current queue depth.
func (b *Bearer) QueuedPackets() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// QueuedBytes returns the total payload bytes currently backlogged —
// the quantity the handover transfer must conserve.
func (b *Bearer) QueuedBytes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, p := range b.queue {
		n += p.bytes
	}
	return n
}

// PeakQueue returns the maximum queue depth observed so far.
func (b *Bearer) PeakQueue() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peakQueue
}

// Credit grants bits of air-interface capacity (one TTI's scheduler
// allocation) and returns the packets that completed transmission,
// oldest first, each with its enqueue time. Unused credit carries
// over, but only while there is a backlog — idle-cell credit does not
// bank up.
func (b *Bearer) Credit(bits float64) []Delivery {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		b.creditBits = 0
		return nil
	}
	b.creditBits += bits
	var out []Delivery
	for len(b.queue) > 0 {
		need := float64(b.queue[0].bytes * 8)
		if b.creditBits < need {
			break
		}
		b.creditBits -= need
		pkt := b.queue[0]
		b.queue = b.queue[1:]
		out = append(out, Delivery{Bytes: pkt.bytes, EnqueuedAt: pkt.at})
		b.DeliveredPackets++
		b.DeliveredBytes += uint64(pkt.bytes)
	}
	return out
}
