package enb

import (
	"fmt"

	"repro/internal/epc"
)

// Checkpoint support: the eNodeB's cross-TTI state — UE contexts,
// scheduler accounting, and each bearer's backlog (packet sizes,
// enqueue timestamps and unspent grant credit) — snapshots into plain
// exported structs, from which Restore rebuilds every context. A
// bearer queue holds sizes only, so it round-trips exactly.

// QueuedPacketState is one backlogged packet: its size and enqueue
// timestamp.
type QueuedPacketState struct {
	Bytes int
	At    float64
}

// BearerState is a bearer's serializable state.
type BearerState struct {
	Tunnel           epc.TunnelState
	CreditBits       float64
	MaxQueue         int
	PeakQueue        int
	DeliveredPackets uint64
	DeliveredBytes   uint64
	Dropped          uint64
	DroppedBytes     uint64
	Queue            []QueuedPacketState
}

// Snapshot captures the bearer state.
func (b *Bearer) Snapshot() BearerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BearerState{
		Tunnel:           b.tunnel.Snapshot(),
		CreditBits:       b.creditBits,
		MaxQueue:         b.MaxQueue,
		PeakQueue:        b.peakQueue,
		DeliveredPackets: b.DeliveredPackets,
		DeliveredBytes:   b.DeliveredBytes,
		Dropped:          b.Dropped,
		DroppedBytes:     b.DroppedBytes,
	}
	for _, p := range b.queue {
		st.Queue = append(st.Queue, QueuedPacketState{Bytes: p.bytes, At: p.at})
	}
	return st
}

// Restore reinstates a snapshot into a bearer on the same TEID.
func (b *Bearer) Restore(st BearerState) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.tunnel.Restore(st.Tunnel); err != nil {
		return fmt.Errorf("enb: bearer tunnel: %w", err)
	}
	b.creditBits = st.CreditBits
	b.MaxQueue = st.MaxQueue
	b.peakQueue = st.PeakQueue
	b.DeliveredPackets = st.DeliveredPackets
	b.DeliveredBytes = st.DeliveredBytes
	b.Dropped = st.Dropped
	b.DroppedBytes = st.DroppedBytes
	b.queue = b.queue[:0]
	for _, p := range st.Queue {
		if p.Bytes < 0 {
			return fmt.Errorf("enb: bearer snapshot has negative packet size %d", p.Bytes)
		}
		b.queue = append(b.queue, queuedPacket{bytes: p.Bytes, at: p.At})
	}
	return nil
}

// UEContextState is one UE context's serializable state.
type UEContextState struct {
	RNTI        uint16
	IMSI        epc.IMSI
	CQI         int
	ServedBits  float64
	StarvedTTIs uint64
	Bearer      BearerState
}

// State is the eNodeB's serializable state, with UE contexts in RNTI
// order so the encoding is deterministic.
type State struct {
	NextRNTI uint16
	TTIs     uint64
	UEs      []UEContextState
}

// Snapshot captures the eNodeB's cross-TTI state.
func (e *ENodeB) Snapshot() State {
	st := State{NextRNTI: e.nextRNTI, TTIs: e.ttis}
	for _, ctx := range e.ordered {
		st.UEs = append(st.UEs, UEContextState{
			RNTI: ctx.RNTI, IMSI: ctx.IMSI, CQI: ctx.CQI,
			ServedBits: ctx.servedBits, StarvedTTIs: ctx.starvedTTIs,
			Bearer: ctx.bearer.Snapshot(),
		})
	}
	return st
}

// Restore rebuilds the eNodeB's UE contexts from a snapshot alone,
// without requiring the same attach layout. Handovers reshuffle which
// UEs a cell holds and under which RNTIs, so a resumed run cannot
// re-attach its way back to the checkpointed layout; instead each
// context (and its bearer, on the snapshot's TEID) is created from
// scratch, replacing whatever the eNodeB held. resolve gives each
// IMSI's owner index and its live EPC session in the rebuilt core.
func (e *ENodeB) Restore(st State, resolve func(epc.IMSI) (ue int, sess *epc.Session, ok bool)) error {
	e.byIMSI = make(map[epc.IMSI]*UEContext, len(st.UEs))
	e.ordered = e.ordered[:0]
	for _, cs := range st.UEs {
		ue, s, ok := resolve(cs.IMSI)
		if !ok {
			return fmt.Errorf("enb: snapshot UE %s resolves to no UE with an EPC session", cs.IMSI)
		}
		b := &Bearer{tunnel: epc.NewTunnel(cs.Bearer.Tunnel.TEID), MaxQueue: 256}
		if err := b.Restore(cs.Bearer); err != nil {
			return fmt.Errorf("enb: UE %s: %w", cs.IMSI, err)
		}
		if _, dup := e.find(cs.RNTI); dup {
			return fmt.Errorf("enb: snapshot has duplicate RNTI %d", cs.RNTI)
		}
		e.add(&UEContext{
			RNTI: cs.RNTI, IMSI: cs.IMSI, UE: ue, CQI: cs.CQI,
			Session: s, bearer: b,
			servedBits: cs.ServedBits, starvedTTIs: cs.StarvedTTIs,
		})
	}
	e.nextRNTI = st.NextRNTI
	e.ttis = st.TTIs
	return nil
}
