package epc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"testing/quick"
)

func TestGTPURoundTrip(t *testing.T) {
	cases := []GTPUPacket{
		{Type: GTPUGPDU, TEID: 0xdeadbeef, Payload: []byte("hello UE")},
		{Type: GTPUGPDU, TEID: 1, HasSeq: true, Seq: 4711, Payload: []byte{0x45, 0, 0, 0}},
		{Type: GTPUEchoRequest, HasSeq: true, Seq: 1},
		{Type: GTPUGPDU, TEID: 7, Payload: nil},
	}
	for _, c := range cases {
		got, err := DecodeGTPU(EncodeGTPU(c))
		if err != nil {
			t.Fatalf("decode(%+v): %v", c, err)
		}
		if got.Type != c.Type || got.TEID != c.TEID || got.HasSeq != c.HasSeq || got.Seq != c.Seq {
			t.Errorf("header mismatch: got %+v want %+v", got, c)
		}
		if !bytes.Equal(got.Payload, c.Payload) && len(c.Payload) > 0 {
			t.Errorf("payload mismatch: %v vs %v", got.Payload, c.Payload)
		}
	}
}

func TestGTPURoundTripProperty(t *testing.T) {
	f := func(teid uint32, seq uint16, hasSeq bool, payload []byte) bool {
		p := GTPUPacket{Type: GTPUGPDU, TEID: teid, HasSeq: hasSeq, Payload: payload}
		if hasSeq {
			p.Seq = seq
		}
		if len(payload) > 1400 {
			return true
		}
		got, err := DecodeGTPU(EncodeGTPU(p))
		if err != nil {
			return false
		}
		return got.TEID == teid && got.HasSeq == hasSeq &&
			(!hasSeq || got.Seq == seq) && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGTPUDecodeErrors(t *testing.T) {
	if _, err := DecodeGTPU([]byte{1, 2, 3}); !errors.Is(err, ErrGTPUTooShort) {
		t.Errorf("short: %v", err)
	}
	// Wrong version bits.
	bad := EncodeGTPU(GTPUPacket{Type: GTPUGPDU, TEID: 1})
	bad[0] = 0
	if _, err := DecodeGTPU(bad); !errors.Is(err, ErrGTPUBadVersion) {
		t.Errorf("version: %v", err)
	}
	// Length longer than buffer.
	trunc := EncodeGTPU(GTPUPacket{Type: GTPUGPDU, TEID: 1, Payload: []byte("abcdef")})
	if _, err := DecodeGTPU(trunc[:len(trunc)-3]); !errors.Is(err, ErrGTPUBadLength) {
		t.Errorf("length: %v", err)
	}
}

func TestTunnelEncapDecap(t *testing.T) {
	tun := NewTunnel(99)
	inner := []byte("ip packet bytes")
	wire := tun.Encap(inner)
	got, err := tun.Decap(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, inner) {
		t.Error("payload corrupted")
	}
	if tun.TxPackets != 1 || tun.RxPackets != 1 || tun.TxBytes != uint64(len(inner)) {
		t.Errorf("counters: %+v", tun)
	}
	// Wrong tunnel.
	other := NewTunnel(100)
	if _, err := other.Decap(wire); !errors.Is(err, ErrTEIDMismatch) {
		t.Errorf("mismatch: %v", err)
	}
	// Non-GPDU rejected by Decap.
	if _, err := tun.Decap(EchoRequest(1)); err == nil {
		t.Error("echo must not decap as user data")
	}
}

func TestTunnelSequencing(t *testing.T) {
	tun := NewTunnel(5)
	tun.Sequencing = true
	p1, _ := DecodeGTPU(tun.Encap([]byte("a")))
	p2, _ := DecodeGTPU(tun.Encap([]byte("b")))
	if !p1.HasSeq || !p2.HasSeq || p2.Seq != p1.Seq+1 {
		t.Errorf("sequencing wrong: %d then %d", p1.Seq, p2.Seq)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	req, err := DecodeGTPU(EchoRequest(42))
	if err != nil || req.Type != GTPUEchoRequest || req.Seq != 42 {
		t.Fatalf("echo request: %+v %v", req, err)
	}
	resp, err := DecodeGTPU(EchoResponse(req))
	if err != nil || resp.Type != GTPUEchoResponse || resp.Seq != 42 {
		t.Fatalf("echo response: %+v %v", resp, err)
	}
}

func TestS1CodecRoundTrip(t *testing.T) {
	msg := S1Message{
		Type:     S1ContextSetup,
		IMSI:     "001010000000007",
		TEID:     1234,
		IP:       net.IPv4(10, 45, 0, 9).To4(),
		Cause:    "ok",
		Response: Respond(key(1), [16]byte{9}),
	}
	msg.Challenge[3] = 7
	got, n, err := DecodeS1(EncodeS1(msg))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(EncodeS1(msg)) {
		t.Error("consumed length wrong")
	}
	if got.Type != msg.Type || got.IMSI != msg.IMSI || got.TEID != msg.TEID ||
		!got.IP.Equal(msg.IP) || got.Cause != msg.Cause ||
		got.Challenge != msg.Challenge || got.Response != msg.Response {
		t.Errorf("mismatch:\n got %+v\nwant %+v", got, msg)
	}
}

func TestS1DecodeErrors(t *testing.T) {
	if _, _, err := DecodeS1([]byte{0}); !errors.Is(err, ErrS1Truncated) {
		t.Error("short prefix")
	}
	full := EncodeS1(S1Message{Type: S1InitialUEMessage, IMSI: "1"})
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := DecodeS1(full[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	// Oversized frame.
	huge := make([]byte, 2)
	huge[0] = 0xff
	huge[1] = 0xff
	if _, _, err := DecodeS1(huge); !errors.Is(err, ErrS1TooLarge) {
		t.Error("oversize not detected")
	}
	// Fixed-size fields framed with another length.
	if _, _, err := DecodeS1(s1ShortFields(64)); !errors.Is(err, ErrS1BadField) {
		t.Errorf("empty challenge and response: %v, want ErrS1BadField", err)
	}
}

// s1ShortFields frames an n-byte S1 body whose challenge and response
// are empty, padding the IMSI to fill it. At n = s1MaxFrame its
// re-encoding (16- and 32-byte fields) would not fit the frame limit.
func s1ShortFields(n int) []byte {
	body := appendBytes([]byte{S1InitialUEMessage}, make([]byte, n-17))
	body = appendBytes(body, nil)
	body = appendBytes(body, nil)
	body = appendBytes(append(body, make([]byte, 8)...), nil)
	return append(binary.BigEndian.AppendUint16(nil, uint16(len(body))), body...)
}

func TestAttachOverS1EndToEnd(t *testing.T) {
	hss := NewHSS()
	hss.Provision(Subscriber{IMSI: "001010000000042", Key: key(9), QoSClass: 9})
	core := NewCore(hss)

	enbSide, coreSide := net.Pipe()
	defer enbSide.Close()
	done := make(chan error, 1)
	go func() {
		done <- core.ServeS1(NewS1Conn(coreSide), 1)
	}()

	conn := NewS1Conn(enbSide)
	teid, ip, err := AttachOverS1(conn, "001010000000042", key(9))
	if err != nil {
		t.Fatal(err)
	}
	if teid == 0 || ip == nil {
		t.Errorf("grant: teid=%d ip=%v", teid, ip)
	}
	if core.ActiveSessions() != 1 {
		t.Error("no session after S1 attach")
	}

	// Wrong key is rejected.
	if _, _, err := AttachOverS1(conn, "001010000000042", key(8)); err == nil {
		t.Error("wrong key should be rejected over S1")
	}

	// Release and close down.
	if err := conn.Send(S1Message{Type: S1ContextRelease, IMSI: "001010000000042"}); err != nil {
		t.Fatal(err)
	}
	coreSide.Close()
	if err := <-done; err != nil && !errors.Is(err, net.ErrClosed) && err.Error() != "io: read/write on closed pipe" {
		t.Errorf("ServeS1 returned %v", err)
	}
}

func TestAttachOverS1UnknownSubscriber(t *testing.T) {
	core := NewCore(NewHSS())
	enbSide, coreSide := net.Pipe()
	defer enbSide.Close()
	defer coreSide.Close()
	go core.ServeS1(NewS1Conn(coreSide), 1) //nolint:errcheck
	if _, _, err := AttachOverS1(NewS1Conn(enbSide), "ghost", key(1)); err == nil {
		t.Error("unknown subscriber should be rejected")
	}
}

// TS 29.281 §5.1 headers EncodeGTPU never writes, as a real S1-U peer
// may send them. Each carries TEID 7 and the 3-byte payload "abc".
var (
	// gtpuPNOnly sets only PN (flags 0x31): the four optional octets
	// are present, and their sequence number does not count.
	gtpuPNOnly = []byte{0x31, GTPUGPDU, 0, 7, 0, 0, 0, 7, 0x12, 0x34, 9, 0, 'a', 'b', 'c'}
	// gtpuExtHeader sets E (flags 0x34) and chains one PDCP PDU number
	// extension header (type 0xc0, one 4-octet unit) before the payload.
	gtpuExtHeader = []byte{0x34, GTPUGPDU, 0, 11, 0, 0, 0, 7, 0, 0, 0, 0xc0, 1, 0xab, 0xcd, 0, 'a', 'b', 'c'}
	// gtpuExtChainSeq sets E and S (flags 0x36), sequence 0x0102, and
	// chains a two-unit extension header into a one-unit one.
	gtpuExtChainSeq = []byte{0x36, GTPUGPDU, 0, 19, 0, 0, 0, 7, 1, 2, 0, 0x85,
		2, 1, 2, 3, 4, 5, 6, 0xc0, 1, 7, 8, 0, 'a', 'b', 'c'}
)

// withVersion returns a valid G-PDU whose 3-bit version field reads v.
func withVersion(v byte) []byte {
	b := EncodeGTPU(GTPUPacket{Type: GTPUGPDU, TEID: 7, Payload: []byte("abc")})
	b[0] = b[0]&^gtpuVersionMask | v<<5
	return b
}

func TestGTPUDecodeConformance(t *testing.T) {
	// Only version 1 with protocol type GTP: the old single-bit test
	// let versions 3 and 7 through.
	for _, v := range []byte{0, 2, 3, 7} {
		if _, err := DecodeGTPU(withVersion(v)); !errors.Is(err, ErrGTPUBadVersion) {
			t.Errorf("version %d: %v, want ErrGTPUBadVersion", v, err)
		}
	}
	gtpPrime := withVersion(1)
	gtpPrime[0] &^= gtpuProtoGTP
	if _, err := DecodeGTPU(gtpPrime); !errors.Is(err, ErrGTPUBadVersion) {
		t.Errorf("protocol type GTP': %v, want ErrGTPUBadVersion", err)
	}

	for name, tc := range map[string]struct {
		pdu    []byte
		hasSeq bool
		seq    uint16
	}{
		"PN only":                {gtpuPNOnly, false, 0},
		"E with one extension":   {gtpuExtHeader, false, 0},
		"E+S with two extension": {gtpuExtChainSeq, true, 0x0102},
	} {
		p, err := DecodeGTPU(tc.pdu)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Type != GTPUGPDU || p.TEID != 7 || p.HasSeq != tc.hasSeq || p.Seq != tc.seq || string(p.Payload) != "abc" {
			t.Errorf("%s: decoded %+v, want TEID 7, seq %v/%d, payload \"abc\"", name, p, tc.hasSeq, tc.seq)
		}
	}

	zeroLen := bytes.Clone(gtpuExtHeader)
	zeroLen[12] = 0
	if _, err := DecodeGTPU(zeroLen); !errors.Is(err, ErrGTPUBadLength) {
		t.Errorf("zero-length extension header: %v, want ErrGTPUBadLength", err)
	}
	overrun := bytes.Clone(gtpuExtHeader)
	overrun[12] = 3 // 12 octets, but only 7 remain
	if _, err := DecodeGTPU(overrun); !errors.Is(err, ErrGTPUBadLength) {
		t.Errorf("extension header past the declared length: %v, want ErrGTPUBadLength", err)
	}
	dangling := bytes.Clone(gtpuExtHeader)
	dangling[15] = 0xc0 // names a successor, then the PDU ends
	dangling = dangling[:16]
	dangling[3] = 8
	if _, err := DecodeGTPU(dangling); !errors.Is(err, ErrGTPUBadLength) {
		t.Errorf("extension chain past the declared length: %v, want ErrGTPUBadLength", err)
	}
}
