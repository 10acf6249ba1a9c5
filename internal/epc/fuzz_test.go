package epc

import (
	"bytes"
	"net"
	"testing"
)

// FuzzDecodeGTPU feeds the S1-U decoder arbitrary bytes. It must never
// panic, and whatever it accepts must survive EncodeGTPU and decode
// to the same packet.
func FuzzDecodeGTPU(f *testing.F) {
	tun := NewTunnel(7)
	f.Add(tun.Encap([]byte("ip packet")))
	tun.Sequencing = true
	f.Add(tun.Encap([]byte("sequenced ip packet")))
	f.Add(EchoRequest(9))
	f.Add(withVersion(3))
	f.Add(withVersion(7))
	f.Add(gtpuPNOnly)
	f.Add(gtpuExtHeader)
	f.Add(gtpuExtChainSeq)
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeGTPU(b)
		if err != nil {
			return
		}
		q, err := DecodeGTPU(EncodeGTPU(p))
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", p, err)
		}
		if q.Type != p.Type || q.TEID != p.TEID || q.HasSeq != p.HasSeq || q.Seq != p.Seq || !bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("round trip changed the packet: %+v -> %+v", p, q)
		}
	})
}

// FuzzDecodeS1 feeds the S1AP-lite framing arbitrary bytes. It must
// never panic, and whatever it accepts must survive EncodeS1 and
// decode to the same message.
func FuzzDecodeS1(f *testing.F) {
	f.Add(EncodeS1(S1Message{Type: S1InitialUEMessage, IMSI: "001010000000042"}))
	f.Add(EncodeS1(S1Message{Type: S1AuthChallenge, IMSI: "001010000000042", Challenge: [16]byte{1, 2, 3}}))
	f.Add(EncodeS1(S1Message{Type: S1ContextSetup, IMSI: "1", TEID: 77, IP: net.IPv4(10, 45, 0, 2), Cause: "ok"}))
	f.Add([]byte{0xff, 0xff})
	f.Add(s1ShortFields(s1MaxFrame))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := DecodeS1(b)
		if err != nil {
			return
		}
		if n < 2 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		enc := EncodeS1(m)
		m2, n2, err := DecodeS1(enc)
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", m, err)
		}
		if n2 != len(enc) || m2.Type != m.Type || m2.IMSI != m.IMSI || m2.Challenge != m.Challenge ||
			m2.Response != m.Response || m2.TEID != m.TEID || !m2.IP.Equal(m.IP) || m2.Cause != m.Cause {
			t.Fatalf("round trip changed the message: %+v -> %+v", m, m2)
		}
	})
}
