package enb

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/epc"
	"repro/internal/ltephy"
)

func testBearer(t *testing.T) *Bearer {
	t.Helper()
	return NewBearer(&epc.Session{IMSI: "1", TEID: 77, IP: net.IPv4(10, 45, 0, 2)})
}

// A PDU from the core crosses the S1-U boundary (decapsulated on the
// bearer's tunnel) and leaves as one delivery of its inner size.
func TestBearerEndToEnd(t *testing.T) {
	b := testBearer(t)
	pkt := bytes.Repeat([]byte{0xab}, 100) // 800 bits
	if err := b.DeliverGTPUAt(b.Tunnel().Encap(pkt), 0); err != nil {
		t.Fatal(err)
	}
	if b.QueuedPackets() != 1 || b.QueuedBytes() != 100 {
		t.Fatal("packet not queued")
	}
	// Not enough credit yet.
	if out := b.Credit(700); out != nil {
		t.Error("partial credit must not deliver")
	}
	out := b.Credit(200) // 700+200 >= 800
	if len(out) != 1 || out[0].Bytes != len(pkt) {
		t.Fatalf("delivery wrong: %+v", out)
	}
	if b.DeliveredPackets != 1 || b.DeliveredBytes != 100 {
		t.Error("counters wrong")
	}
}

func TestBearerInOrderMultiPacket(t *testing.T) {
	b := testBearer(t)
	for i := 0; i < 3; i++ {
		if !b.Enqueue(2+i, 0) { // 16, 24 and 32 bits
			t.Fatalf("packet %d tail-dropped", i)
		}
	}
	out := b.Credit(45) // enough for the first 2 packets (40 bits), not 3
	if len(out) != 2 || out[0].Bytes != 2 || out[1].Bytes != 3 {
		t.Fatalf("in-order delivery broken: %+v", out)
	}
	if b.QueuedPackets() != 1 {
		t.Error("third packet should remain queued")
	}
}

func TestBearerIdleCreditDoesNotBank(t *testing.T) {
	b := testBearer(t)
	b.Credit(1e9) // idle: must not bank
	b.Enqueue(125, 0)
	if out := b.Credit(500); out != nil {
		t.Error("banked idle credit leaked through")
	}
}

func TestBearerTailDrop(t *testing.T) {
	b := testBearer(t)
	b.MaxQueue = 2
	for i := 0; i < 4; i++ {
		err := b.DeliverGTPUAt(b.Tunnel().Encap([]byte{byte(i)}), 0)
		if i < 2 && err != nil {
			t.Fatal(err)
		}
		if i >= 2 && err != ErrQueueOverflow {
			t.Fatalf("packet %d: want ErrQueueOverflow, got %v", i, err)
		}
	}
	if b.Enqueue(7, 0) {
		t.Fatal("Enqueue accepted a packet into a full queue")
	}
	if b.QueuedPackets() != 2 || b.Dropped != 3 || b.DroppedBytes != 9 {
		t.Errorf("queue=%d dropped=%d droppedBytes=%d", b.QueuedPackets(), b.Dropped, b.DroppedBytes)
	}
	if b.PeakQueue() != 2 {
		t.Errorf("peak queue %d, want 2", b.PeakQueue())
	}
}

// TestBearerOverflowKeepsOldest pins the tail-drop policy: overflow
// discards the arriving packet, the backlog keeps its FIFO order, and
// subsequent credit delivers the survivors oldest-first. Every packet
// has its own size, so a delivery's size names the packet.
func TestBearerOverflowKeepsOldest(t *testing.T) {
	b := testBearer(t)
	b.MaxQueue = 3
	for i := 0; i < 5; i++ {
		if ok := b.Enqueue(10+i, float64(i)); ok != (i < 3) {
			t.Fatalf("packet %d: Enqueue reported %v", i, ok)
		}
	}
	out := b.Credit(1e6)
	if len(out) != 3 {
		t.Fatalf("delivered %d packets, want the 3 oldest", len(out))
	}
	for i, d := range out {
		if d.Bytes != 10+i {
			t.Errorf("delivery %d carries the %d-byte packet; FIFO broken", i, d.Bytes)
		}
		if d.EnqueuedAt != float64(i) {
			t.Errorf("delivery %d enqueue time %g, want %d", i, d.EnqueuedAt, i)
		}
	}
}

// TestBearerCreditAccumulatesAcrossTTIs covers a packet larger than any
// single TTI grant: the bearer must bank partial credit while a backlog
// exists and release the packet once the accumulated grants cover it.
func TestBearerCreditAccumulatesAcrossTTIs(t *testing.T) {
	b := testBearer(t)
	b.Enqueue(1500, 0) // 12000 bits
	// Five TTIs at 2400 bits each: delivery only on the fifth.
	for tti := 0; tti < 4; tti++ {
		if out := b.Credit(2400); out != nil {
			t.Fatalf("TTI %d delivered with only partial credit", tti)
		}
	}
	out := b.Credit(2400)
	if len(out) != 1 || out[0].Bytes != 1500 {
		t.Fatalf("packet not delivered after credit accumulation: %+v", out)
	}
	if out[0].EnqueuedAt != 0 {
		t.Errorf("enqueue timestamp %g, want 0", out[0].EnqueuedAt)
	}
}

// TestZeroCQIStarvation drives the full eNodeB path: a UE whose channel
// reports decode to CQI 0 gets no grants, so its bearer backlog only
// grows — and starts draining as soon as the channel recovers.
func TestZeroCQIStarvation(t *testing.T) {
	hss := epc.NewHSS()
	core := epc.NewCore(hss)
	var k [16]byte
	k[0] = 1
	hss.Provision(epc.Subscriber{IMSI: "starved", Key: k, QoSClass: 9})
	e := New(ltephy.LTE10MHz(), core)
	ctx, err := e.Attach(0, "starved", k, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx.ReportSNR(-20) // deep fade → CQI 0
	b := ctx.Bearer()
	if b == nil {
		t.Fatal("no bearer after attach")
	}
	for i := 0; i < 10; i++ {
		b.Enqueue(100, float64(i)*1e-3)
	}
	granted := 0
	for tti := 0; tti < 5; tti++ {
		runTTI(e, func(int, float64) { granted++ })
	}
	if granted != 0 {
		t.Fatalf("starved UE received %d grants", granted)
	}
	if b.QueuedPackets() != 10 {
		t.Fatalf("backlog %d, want 10 (nothing drains at CQI 0)", b.QueuedPackets())
	}
	// Channel recovers: grants resume and the backlog drains.
	ctx.ReportSNR(20)
	for tti := 0; tti < 5; tti++ {
		runTTI(e, func(_ int, bits float64) {
			b.Credit(bits)
		})
	}
	if b.QueuedPackets() != 0 {
		t.Fatalf("backlog %d after recovery, want 0", b.QueuedPackets())
	}
}

func TestBearerRejectsWrongTunnel(t *testing.T) {
	b := testBearer(t)
	other := epc.NewTunnel(999)
	if err := b.DeliverGTPUAt(other.Encap([]byte{1}), 0); err == nil {
		t.Error("wrong TEID must be rejected")
	}
}
