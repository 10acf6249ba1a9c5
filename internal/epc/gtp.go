package epc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// GTP-U v1 (TS 29.281) user-plane encapsulation: the S1-U codec at
// the EPC boundary, for a split deployment over a real backhaul
// (examples/epcsplit) and standard tooling. The decoder therefore
// reads what a real peer sends, optional octets and extension headers
// included. The simulated serving loop has no S1-U hop: it queues
// packet sizes straight into the bearers.

// GTP-U message types we implement.
const (
	GTPUEchoRequest  = 1
	GTPUEchoResponse = 2
	GTPUErrorInd     = 26
	GTPUGPDU         = 255
)

const (
	gtpuVersionMask = 7 << 5
	gtpuVersion1    = 1 << 5
	gtpuProtoGTP    = 1 << 4
	// gtpuFlagE, gtpuFlagS and gtpuFlagPN mark an extension header
	// chain, a sequence number and an N-PDU number. Any of them brings
	// in the four optional octets that carry all three fields.
	gtpuFlagE  = 1 << 2
	gtpuFlagS  = 1 << 1
	gtpuFlagPN = 1 << 0

	gtpuMinHeader = 8
	gtpuOptHeader = 4
)

// GTPUPacket is a decoded GTP-U PDU.
type GTPUPacket struct {
	Type    uint8
	TEID    uint32
	Seq     uint16
	HasSeq  bool
	Payload []byte
}

// Errors returned by DecodeGTPU.
var (
	ErrGTPUTooShort   = errors.New("epc: GTP-U packet too short")
	ErrGTPUBadVersion = errors.New("epc: GTP-U version/protocol-type not v1/GTP")
	ErrGTPUBadLength  = errors.New("epc: GTP-U length field mismatch")
)

// EncodeGTPU serialises a GTP-U PDU.
func EncodeGTPU(p GTPUPacket) []byte {
	opt := 0
	if p.HasSeq {
		opt = gtpuOptHeader
	}
	buf := make([]byte, gtpuMinHeader+opt+len(p.Payload))
	flags := byte(gtpuVersion1 | gtpuProtoGTP)
	if p.HasSeq {
		flags |= gtpuFlagS
	}
	buf[0] = flags
	buf[1] = p.Type
	binary.BigEndian.PutUint16(buf[2:4], uint16(opt+len(p.Payload)))
	binary.BigEndian.PutUint32(buf[4:8], p.TEID)
	if p.HasSeq {
		binary.BigEndian.PutUint16(buf[8:10], p.Seq)
		// buf[10:12] = N-PDU number and next-extension type, both zero.
	}
	copy(buf[gtpuMinHeader+opt:], p.Payload)
	return buf
}

// DecodeGTPU parses a GTP-U PDU as TS 29.281 §5 lays it out. It
// requires version 1 and protocol type GTP. The four optional octets
// are present when any of E, S or PN is set, and the sequence number
// in them counts only under S. Under E, extension headers follow, each
// skipped by its length octet (in 4-octet units) until one names no
// successor; a zero length or one past the declared length is an
// error.
func DecodeGTPU(b []byte) (GTPUPacket, error) {
	var p GTPUPacket
	if len(b) < gtpuMinHeader {
		return p, ErrGTPUTooShort
	}
	if b[0]&(gtpuVersionMask|gtpuProtoGTP) != gtpuVersion1|gtpuProtoGTP {
		return p, ErrGTPUBadVersion
	}
	p.Type = b[1]
	length := int(binary.BigEndian.Uint16(b[2:4]))
	p.TEID = binary.BigEndian.Uint32(b[4:8])
	if len(b) < gtpuMinHeader+length {
		return p, fmt.Errorf("%w: declared %d, have %d", ErrGTPUBadLength, length, len(b)-gtpuMinHeader)
	}
	body := b[gtpuMinHeader : gtpuMinHeader+length]
	if b[0]&(gtpuFlagE|gtpuFlagS|gtpuFlagPN) != 0 {
		if len(body) < gtpuOptHeader {
			return p, ErrGTPUTooShort
		}
		if b[0]&gtpuFlagS != 0 {
			p.HasSeq = true
			p.Seq = binary.BigEndian.Uint16(body[0:2])
		}
		next := body[3]
		if b[0]&gtpuFlagE == 0 {
			next = 0 // the next-type octet counts only under E
		}
		body = body[gtpuOptHeader:]
		for next != 0 {
			if len(body) == 0 {
				return p, fmt.Errorf("%w: extension header past the declared length", ErrGTPUBadLength)
			}
			n := 4 * int(body[0])
			if n == 0 || n > len(body) {
				return p, fmt.Errorf("%w: extension header of %d octets, %d left", ErrGTPUBadLength, n, len(body))
			}
			next = body[n-1]
			body = body[n:]
		}
	}
	p.Payload = append([]byte(nil), body...)
	return p, nil
}

// Tunnel is the user-plane bearer context: it encapsulates downlink IP
// packets towards the UE's TEID and validates uplink decapsulation.
type Tunnel struct {
	TEID uint32
	seq  uint16
	// Sequencing enables in-order delivery marking.
	Sequencing bool

	// Counters for diagnostics.
	TxPackets, RxPackets uint64
	TxBytes, RxBytes     uint64
}

// NewTunnel returns a tunnel for the given TEID.
func NewTunnel(teid uint32) *Tunnel { return &Tunnel{TEID: teid} }

// Encap wraps an inner packet into a G-PDU for this tunnel.
func (t *Tunnel) Encap(inner []byte) []byte {
	p := GTPUPacket{Type: GTPUGPDU, TEID: t.TEID, Payload: inner}
	if t.Sequencing {
		p.HasSeq = true
		p.Seq = t.seq
		t.seq++
	}
	t.TxPackets++
	t.TxBytes += uint64(len(inner))
	return EncodeGTPU(p)
}

// ErrTEIDMismatch is returned when a PDU arrives on the wrong tunnel.
var ErrTEIDMismatch = errors.New("epc: TEID mismatch")

// Decap validates and unwraps a G-PDU received on this tunnel.
func (t *Tunnel) Decap(b []byte) ([]byte, error) {
	p, err := DecodeGTPU(b)
	if err != nil {
		return nil, err
	}
	if p.Type != GTPUGPDU {
		return nil, fmt.Errorf("epc: unexpected GTP-U type %d", p.Type)
	}
	if p.TEID != t.TEID {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrTEIDMismatch, p.TEID, t.TEID)
	}
	t.RxPackets++
	t.RxBytes += uint64(len(p.Payload))
	return p.Payload, nil
}

// TunnelState is a tunnel's serializable state: the sequence cursor
// and the diagnostic counters.
type TunnelState struct {
	TEID                 uint32
	Seq                  uint16
	Sequencing           bool
	TxPackets, RxPackets uint64
	TxBytes, RxBytes     uint64
}

// Snapshot captures the tunnel state.
func (t *Tunnel) Snapshot() TunnelState {
	return TunnelState{
		TEID: t.TEID, Seq: t.seq, Sequencing: t.Sequencing,
		TxPackets: t.TxPackets, RxPackets: t.RxPackets,
		TxBytes: t.TxBytes, RxBytes: t.RxBytes,
	}
}

// Restore reinstates a snapshot into a tunnel with the same TEID.
func (t *Tunnel) Restore(st TunnelState) error {
	if st.TEID != t.TEID {
		return fmt.Errorf("%w: restoring state for TEID %d into tunnel %d", ErrTEIDMismatch, st.TEID, t.TEID)
	}
	t.seq = st.Seq
	t.Sequencing = st.Sequencing
	t.TxPackets, t.RxPackets = st.TxPackets, st.RxPackets
	t.TxBytes, t.RxBytes = st.TxBytes, st.RxBytes
	return nil
}

// EchoRequest builds a GTP-U echo request (path keepalive).
func EchoRequest(seq uint16) []byte {
	return EncodeGTPU(GTPUPacket{Type: GTPUEchoRequest, HasSeq: true, Seq: seq})
}

// EchoResponse builds the response for a received echo request.
func EchoResponse(req GTPUPacket) []byte {
	return EncodeGTPU(GTPUPacket{Type: GTPUEchoResponse, HasSeq: true, Seq: req.Seq})
}
