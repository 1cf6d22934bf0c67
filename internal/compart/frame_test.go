package compart

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"path/filepath"
	"testing"
)

// TestFramingAllocations: writing a frame through a connection's frameWriter
// allocates nothing, on the buffered path and the vectored one alike, and
// reading one through a bufio.Reader allocates only the frame's body.
func TestFramingAllocations(t *testing.T) {
	small, large := make([]byte, 100), make([]byte, 8<<10)
	fw := newFrameWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() {
		if writeFrame(fw, small) != nil || writeFrame(fw, large) != nil || fw.Flush() != nil {
			t.Fatal("write failed")
		}
	}); n != 0 {
		t.Errorf("writing two frames allocates %v objects, want 0", n)
	}

	var stream bytes.Buffer
	for i := 0; i < 101; i++ { // AllocsPerRun's warm-up call plus 100 runs
		if err := writeFrame(&stream, small); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&stream)
	if n := testing.AllocsPerRun(100, func() {
		if body, err := readFrame(r); err != nil || len(body) != len(small) {
			t.Fatalf("read %d bytes: %v", len(body), err)
		}
	}); n != 1 {
		t.Errorf("reading a frame allocates %v objects, want 1 (its body)", n)
	}
}

// unixCounter and tcpCounter count the Write calls that reach a connection.
// Each embeds the concrete connection, so a vectored write (net.Buffers)
// still reaches the socket as one writev, without passing through Write.
type unixCounter struct {
	*net.UnixConn
	writes int
}

func (c *unixCounter) Write(p []byte) (int, error) { c.writes++; return c.UnixConn.Write(p) }

type tcpCounter struct {
	*net.TCPConn
	writes int
}

func (c *tcpCounter) Write(p []byte) (int, error) { c.writes++; return c.TCPConn.Write(p) }

// TestLargeFrameIsOneWrite: a frame reaches the connection in one system
// call whether or not it fits the writer's 4 KiB buffer. Over a packet
// socket every write or writev is exactly one record, so the frames around
// the buffer size (4091–4097 B bodies: 4092 is the last that fits beside its
// header) must each arrive as one record holding header and body. Frames
// that fit go through one Write at the flush; larger ones bypass Write
// entirely, as one vectored write. A frame near the 16 MiB limit takes the
// vectored path over TCP and round-trips byte for byte.
func TestLargeFrameIsOneWrite(t *testing.T) {
	t.Run("packets", func(t *testing.T) {
		l, err := net.ListenUnix("unixpacket", &net.UnixAddr{Name: filepath.Join(t.TempDir(), "s"), Net: "unixpacket"})
		if err != nil {
			t.Skipf("no packet sockets: %v", err)
		}
		defer l.Close()
		accepted := make(chan *net.UnixConn, 1)
		go func() {
			c, err := l.AcceptUnix()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}()
		dialed, err := net.DialUnix("unixpacket", nil, l.Addr().(*net.UnixAddr))
		if err != nil {
			t.Fatal(err)
		}
		defer dialed.Close()
		peer := <-accepted
		if peer == nil {
			t.Fatal("accept failed")
		}
		defer peer.Close()
		conn := &unixCounter{UnixConn: dialed}
		w := newFrameWriter(conn)
		record := make([]byte, 8<<10)
		for size := 4091; size <= 4097; size++ {
			body := bytes.Repeat([]byte{byte(size)}, size)
			before := conn.writes
			if err := writeFrame(w, body); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			n, err := peer.Read(record)
			if err != nil {
				t.Fatal(err)
			}
			want := binary.BigEndian.AppendUint32(nil, uint32(size))
			want = append(want, body...)
			if !bytes.Equal(record[:n], want) {
				t.Fatalf("%d B body: the first record holds %d of the frame's %d bytes", size, n, len(want))
			}
			wantWrites := 0
			if 4+size <= w.Size() {
				wantWrites = 1
			}
			if got := conn.writes - before; got != wantWrites {
				t.Fatalf("%d B body: %d Write calls, want %d", size, got, wantWrites)
			}
		}
	})
	t.Run("near the frame limit", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		body := make([]byte, maxFrame-16)
		for i := range body {
			body[i] = byte(i * 7)
		}
		got := make(chan []byte, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				got <- nil
				return
			}
			defer c.Close()
			frame, _ := readFrame(bufio.NewReader(c))
			got <- frame
		}()
		dialed, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer dialed.Close()
		conn := &tcpCounter{TCPConn: dialed.(*net.TCPConn)}
		w := newFrameWriter(conn)
		if err := writeFrame(w, body); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if conn.writes != 0 {
			t.Fatalf("a %d B frame made %d Write calls, want one vectored write", len(body), conn.writes)
		}
		if frame := <-got; !bytes.Equal(frame, body) {
			t.Fatalf("the frame did not round-trip: read %d of %d bytes", len(frame), len(body))
		}
	})
}
