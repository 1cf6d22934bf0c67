package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// fanoutFloor is the hand-written counterpart of update_fanout: each client
// writes fanoutWidth length-prefixed frames on its own loopback connection
// and waits for one cumulative acknowledgment; the receiving side sets a map
// entry under a mutex for every frame, as a sink table would. The key-value
// workloads use internal/direct as their floor.
type fanoutFloor struct {
	l     net.Listener
	conns []net.Conn
	w     []*bufio.Writer
	r     []*bufio.Reader
	frame [][]byte
	sent  []uint64 // frames written per client
	acked []uint64 // last cumulative acknowledgment per client

	mu   sync.Mutex
	seen map[string]bool
	wg   sync.WaitGroup
}

func newFanoutFloor(clients int) (*fanoutFloor, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fanoutFloor{l: l, seen: map[string]bool{}, sent: make([]uint64, clients), acked: make([]uint64, clients)}
	f.wg.Add(1)
	go f.accept()
	for c := 0; c < clients; c++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			f.close()
			return nil, err
		}
		body := fmt.Sprintf("%s::%s>%s::%s U=1", sourceInst(c), pushJn, sinkInst, sinkJn)
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		f.conns = append(f.conns, conn)
		f.w = append(f.w, bufio.NewWriter(conn))
		f.r = append(f.r, bufio.NewReader(conn))
		f.frame = append(f.frame, append(frame, body...))
	}
	return f, nil
}

func (f *fanoutFloor) accept() {
	defer f.wg.Done()
	for {
		conn, err := f.l.Accept()
		if err != nil {
			return
		}
		f.wg.Add(1)
		go f.serve(conn)
	}
}

func (f *fanoutFloor) serve(conn net.Conn) {
	defer f.wg.Done()
	defer conn.Close()
	r := bufio.NewReader(conn)
	var hdr, ack [8]byte
	body := make([]byte, 0, 256)
	var got uint64
	for {
		if _, err := io.ReadFull(r, hdr[:4]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		if int(n) > cap(body) {
			return
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		f.mu.Lock()
		if !f.seen[string(body)] { // the lookup does not allocate; the first store does
			f.seen[string(body)] = true
		}
		f.mu.Unlock()
		if got++; got%fanoutWidth == 0 {
			binary.BigEndian.PutUint64(ack[:], got)
			if _, err := conn.Write(ack[:]); err != nil {
				return
			}
		}
	}
}

func (f *fanoutFloor) prepare(int) {}

func (f *fanoutFloor) execute(c int) error {
	for i := 0; i < fanoutWidth; i++ {
		if _, err := f.w[c].Write(f.frame[c]); err != nil {
			return err
		}
	}
	if err := f.w[c].Flush(); err != nil {
		return err
	}
	f.sent[c] += fanoutWidth
	var ack [8]byte
	if _, err := io.ReadFull(f.r[c], ack[:]); err != nil {
		return err
	}
	f.acked[c] = binary.BigEndian.Uint64(ack[:])
	return nil
}

func (f *fanoutFloor) verify(c int) bool { return f.acked[c] == f.sent[c] }

func (f *fanoutFloor) check() error {
	for c := range f.sent {
		if f.acked[c] != f.sent[c] {
			return fmt.Errorf("floor fan-out: client %d sent %d frames, %d acknowledged", c, f.sent[c], f.acked[c])
		}
	}
	return nil
}

func (f *fanoutFloor) close() {
	_ = f.l.Close()
	for _, c := range f.conns {
		_ = c.Close()
	}
	f.wg.Wait()
}
