package main

import (
	"errors"
	"net"
	"time"

	"csaw/internal/compart"
)

func probeCompart(w *workload, m *metrics) error {
	msg := compart.Message{
		From: "Fnt::junction", To: "Bck1::junction", Kind: compart.KindData, Key: "n",
		Payload: make([]byte, 8+payloadSize(w)),
	}
	var buf []byte
	ns, _ := probe(func() {
		buf, _ = compart.AppendMessage(buf[:0], msg)
		_, _ = compart.DecodeMessage(buf)
	})
	m.add("compart.codec_ns_per_msg", ns, "ns")

	nw := compart.NewNetwork(1)
	defer nw.Close()
	nw.Register(msg.To, func(compart.Message) {})
	ns, _ = probe(func() { _ = nw.Send(msg) })
	m.add("compart.inproc_send_us", ns/1e3, "us")

	rtt, err := tcpEcho(msg)
	m.add("compart.tcp_rtt_us", rtt/1e3, "us")
	return err
}

// tcpEcho is the median time for a message to cross a loopback TCP server
// into a network and for the endpoint's reply to cross a second one back:
// one cross-location update and its acknowledgment.
func tcpEcho(msg compart.Message) (float64, error) {
	var nets [2]*compart.Network
	var clients [2]*compart.ReconnectClient
	for i := range nets {
		nets[i] = compart.NewNetwork(int64(i + 1))
		defer nets[i].Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		srv := compart.ServeTCP(nets[i], l)
		defer srv.Close()
		clients[i] = compart.DialReconnect(srv.Addr().String(), compart.ReconnectConfig{})
		defer clients[i].Close()
	}
	back := make(chan struct{}, 1)
	reply := compart.Message{From: msg.To, To: msg.From, Kind: compart.KindControl, Key: "ack", Payload: make([]byte, 8)}
	nets[1].Register(msg.To, func(compart.Message) { _ = clients[0].Send(reply) })
	nets[0].Register(msg.From, func(compart.Message) { back <- struct{}{} })
	var rtt hist
	for i := 0; i < 1200; i++ {
		t0 := time.Now()
		if err := clients[1].Send(msg); err != nil {
			return 0, err
		}
		select {
		case <-back:
		case <-time.After(ackTimeout):
			return 0, errors.New("tcp echo probe: no reply")
		}
		if i >= 200 { // the first round trips include the dial
			rtt.add(int64(time.Since(t0)))
		}
	}
	return rtt.quantile(0.5), nil
}
