package epc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// S1AP-lite: a compact binary control-plane protocol between the
// eNodeB and the core, modelled on the S1AP procedures SkyRAN needs
// (initial UE message, NAS transport for the authentication handshake,
// context setup/release). Messages are length-prefixed TLV structures
// so the link can run over any stream transport; the UAV uses an
// in-process pipe, a split deployment would use TCP over the backhaul.

// S1 message types.
const (
	S1InitialUEMessage  uint8 = 1
	S1AuthChallenge     uint8 = 2
	S1AuthResponse      uint8 = 3
	S1ContextSetup      uint8 = 4
	S1ContextRelease    uint8 = 5
	S1Reject            uint8 = 6
	S1PathSwitchRequest uint8 = 7
)

// S1Message is one control-plane message. Fields are used according to
// the type; unused ones are zero.
type S1Message struct {
	Type      uint8
	IMSI      IMSI
	Challenge [16]byte
	Response  [32]byte
	TEID      uint32
	IP        net.IP // 4 bytes when set
	Cause     string
}

const s1MaxFrame = 1 << 12

// EncodeS1 serialises msg with a length prefix.
func EncodeS1(msg S1Message) []byte {
	body := make([]byte, 0, 96)
	body = append(body, msg.Type)
	body = appendBytes(body, []byte(msg.IMSI))
	body = appendBytes(body, msg.Challenge[:])
	body = appendBytes(body, msg.Response[:])
	var teid [4]byte
	binary.BigEndian.PutUint32(teid[:], msg.TEID)
	body = append(body, teid[:]...)
	ip := msg.IP.To4()
	if ip == nil {
		ip = net.IPv4zero.To4()
	}
	body = append(body, ip...)
	body = appendBytes(body, []byte(msg.Cause))

	out := make([]byte, 2+len(body))
	binary.BigEndian.PutUint16(out, uint16(len(body)))
	copy(out[2:], body)
	return out
}

func appendBytes(dst, b []byte) []byte {
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(b)))
	dst = append(dst, l[:]...)
	return append(dst, b...)
}

// Errors returned by the S1 codec.
var (
	ErrS1Truncated = errors.New("epc: truncated S1 message")
	ErrS1TooLarge  = errors.New("epc: S1 frame exceeds limit")
	// ErrS1BadField reports a fixed-size field (challenge, response)
	// framed with another length. Accepting one would let a frame at
	// the size limit re-encode past it.
	ErrS1BadField = errors.New("epc: S1 fixed-size field has the wrong length")
)

// DecodeS1 parses one length-prefixed message from b, returning the
// message and the number of bytes consumed.
func DecodeS1(b []byte) (S1Message, int, error) {
	var msg S1Message
	if len(b) < 2 {
		return msg, 0, ErrS1Truncated
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > s1MaxFrame {
		return msg, 0, ErrS1TooLarge
	}
	if len(b) < 2+n {
		return msg, 0, ErrS1Truncated
	}
	body := b[2 : 2+n]
	if len(body) < 1 {
		return msg, 0, ErrS1Truncated
	}
	msg.Type = body[0]
	rest := body[1:]
	take := func() ([]byte, error) {
		if len(rest) < 2 {
			return nil, ErrS1Truncated
		}
		l := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < l {
			return nil, ErrS1Truncated
		}
		v := rest[:l]
		rest = rest[l:]
		return v, nil
	}
	imsi, err := take()
	if err != nil {
		return msg, 0, err
	}
	msg.IMSI = IMSI(imsi)
	ch, err := take()
	if err != nil {
		return msg, 0, err
	}
	if len(ch) != len(msg.Challenge) {
		return msg, 0, fmt.Errorf("%w: challenge of %d octets", ErrS1BadField, len(ch))
	}
	copy(msg.Challenge[:], ch)
	resp, err := take()
	if err != nil {
		return msg, 0, err
	}
	if len(resp) != len(msg.Response) {
		return msg, 0, fmt.Errorf("%w: response of %d octets", ErrS1BadField, len(resp))
	}
	copy(msg.Response[:], resp)
	if len(rest) < 8 {
		return msg, 0, ErrS1Truncated
	}
	msg.TEID = binary.BigEndian.Uint32(rest[:4])
	msg.IP = net.IPv4(rest[4], rest[5], rest[6], rest[7]).To4()
	rest = rest[8:]
	cause, err := take()
	if err != nil {
		return msg, 0, err
	}
	msg.Cause = string(cause)
	return msg, 2 + n, nil
}

// S1Conn frames S1 messages over a stream transport.
type S1Conn struct {
	rw io.ReadWriter
	br *bufio.Reader
	mu sync.Mutex
}

// NewS1Conn wraps a stream connection (net.Conn, net.Pipe end, ...).
func NewS1Conn(rw io.ReadWriter) *S1Conn {
	return &S1Conn{rw: rw, br: bufio.NewReader(rw)}
}

// Send writes one message.
func (c *S1Conn) Send(msg S1Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.rw.Write(EncodeS1(msg))
	return err
}

// Recv reads one message, blocking until a full frame arrives.
func (c *S1Conn) Recv() (S1Message, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return S1Message{}, err
	}
	n := int(binary.BigEndian.Uint16(hdr[:]))
	if n > s1MaxFrame {
		return S1Message{}, ErrS1TooLarge
	}
	frame := make([]byte, 2+n)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(c.br, frame[2:]); err != nil {
		return S1Message{}, err
	}
	msg, _, err := DecodeS1(frame)
	return msg, err
}

// ServeS1 runs the core side of the S1 interface on conn until the
// connection closes: it handles InitialUEMessage by issuing an
// authentication challenge, AuthResponse by completing the attach and
// answering with ContextSetup (or Reject), and ContextRelease by
// detaching. It returns the first transport error (io.EOF on orderly
// close).
func (c *Core) ServeS1(conn *S1Conn, challengeSeed uint64) error {
	for {
		msg, err := conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch msg.Type {
		case S1InitialUEMessage:
			challengeSeed++
			ch, err := c.BeginAttach(msg.IMSI, challengeSeed)
			if err != nil {
				if err := conn.Send(S1Message{Type: S1Reject, IMSI: msg.IMSI, Cause: err.Error()}); err != nil {
					return err
				}
				continue
			}
			if err := conn.Send(S1Message{Type: S1AuthChallenge, IMSI: msg.IMSI, Challenge: ch}); err != nil {
				return err
			}
		case S1AuthResponse:
			sess, err := c.CompleteAttach(msg.IMSI, msg.Response)
			if err != nil {
				if err := conn.Send(S1Message{Type: S1Reject, IMSI: msg.IMSI, Cause: err.Error()}); err != nil {
					return err
				}
				continue
			}
			if err := conn.Send(S1Message{Type: S1ContextSetup, IMSI: msg.IMSI, TEID: sess.TEID, IP: sess.IP}); err != nil {
				return err
			}
		case S1ContextRelease:
			c.Detach(msg.IMSI)
		default:
			if err := conn.Send(S1Message{Type: S1Reject, IMSI: msg.IMSI, Cause: fmt.Sprintf("unknown type %d", msg.Type)}); err != nil {
				return err
			}
		}
	}
}

// AttachOverS1 runs the eNodeB/UE side of a full attach over an S1
// connection: initial message, challenge, response computed with the
// UE key, and context setup. It returns the granted TEID and IP.
func AttachOverS1(conn *S1Conn, imsi IMSI, key [16]byte) (uint32, net.IP, error) {
	if err := conn.Send(S1Message{Type: S1InitialUEMessage, IMSI: imsi}); err != nil {
		return 0, nil, err
	}
	ch, err := conn.Recv()
	if err != nil {
		return 0, nil, err
	}
	if ch.Type == S1Reject {
		return 0, nil, fmt.Errorf("epc: attach rejected: %s", ch.Cause)
	}
	if ch.Type != S1AuthChallenge {
		return 0, nil, fmt.Errorf("epc: unexpected S1 type %d", ch.Type)
	}
	resp := Respond(key, ch.Challenge)
	if err := conn.Send(S1Message{Type: S1AuthResponse, IMSI: imsi, Response: resp}); err != nil {
		return 0, nil, err
	}
	setup, err := conn.Recv()
	if err != nil {
		return 0, nil, err
	}
	if setup.Type == S1Reject {
		return 0, nil, fmt.Errorf("epc: attach rejected: %s", setup.Cause)
	}
	if setup.Type != S1ContextSetup {
		return 0, nil, fmt.Errorf("epc: unexpected S1 type %d", setup.Type)
	}
	return setup.TEID, setup.IP, nil
}
