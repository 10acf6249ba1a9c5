// EPC split deployment: the paper co-locates eNodeB and EPC on two
// onboard computers linked by Ethernet (§4.1); a future variant could
// keep the EPC on the ground behind the backhaul. This example runs
// the S1AP-lite control plane over a real TCP connection — attach,
// authentication, bearer setup — then pushes downlink traffic through
// the GTP-U tunnel into the scheduler-driven bearer queue, exactly the
// path a split deployment would use.
package main

import (
	"fmt"
	"log"
	"net"

	"repro/internal/enb"
	"repro/internal/epc"
	"repro/internal/ltephy"
)

func main() {
	// Ground side: HSS + collapsed core listening on TCP.
	hss := epc.NewHSS()
	var key [16]byte
	copy(key[:], "skyran-demo-key!")
	hss.Provision(epc.Subscriber{IMSI: "001017331200001", Key: key, QoSClass: 9})
	core := epc.NewCore(hss)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if err := core.ServeS1(epc.NewS1Conn(conn), 1); err != nil {
			log.Println("core S1:", err)
		}
	}()

	// Airborne side: dial the S1 link and attach a UE end-to-end.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	s1 := epc.NewS1Conn(conn)
	teid, ip, err := epc.AttachOverS1(s1, "001017331200001", key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attach over TCP S1: TEID=%d, UE IP=%s\n", teid, ip)

	// Bearer: core encapsulates downlink IP packets into GTP-U; the
	// eNodeB queues them and the scheduler's per-TTI grants drain them.
	bearer := enb.NewBearer(&epc.Session{IMSI: "001017331200001", TEID: teid, IP: ip})
	coreTunnel := epc.NewTunnel(teid)

	num := ltephy.LTE10MHz()
	const snrDB = 14.0 // a mid-cell link
	perTTIBits := num.ThroughputBps(snrDB) / 1000

	// 40 packets of 1200 B arrive from the internet.
	for i := 0; i < 40; i++ {
		pkt := make([]byte, 1200)
		pkt[0] = byte(i)
		if err := bearer.DeliverGTPUAt(coreTunnel.Encap(pkt), 0); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("queued %d packets (%d B each) for a CQI-%d link, %d bits/TTI\n",
		bearer.QueuedPackets(), 1200, ltephy.CQIForSNR(snrDB), int(perTTIBits))

	// Run TTIs until the queue drains.
	ttis := 0
	for bearer.QueuedPackets() > 0 && ttis < 10000 {
		bearer.Credit(perTTIBits)
		ttis++
	}
	fmt.Printf("drained in %d TTIs (%.1f ms) -> %.1f Mbps effective\n",
		ttis, float64(ttis), float64(bearer.DeliveredBytes)*8/float64(ttis)/1000)
	fmt.Printf("delivered %d packets, %d bytes; tunnel tx=%d rx=%d\n",
		bearer.DeliveredPackets, bearer.DeliveredBytes,
		coreTunnel.TxPackets, bearer.Tunnel().RxPackets)
}
