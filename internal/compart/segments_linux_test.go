//go:build linux

package compart

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// BenchmarkLoopbackSegments prices one request/response round trip of a
// small frame over loopback TCP, wired two ways: one duplex connection, and
// two one-way connections (one per direction, as a pair of dialled clients
// wires two locations). It reports the TCP segments each round trip puts on
// the wire, from the host's /proc/net/snmp counters, and the process CPU
// (user plus system) it costs, both ends included.
//
// On a one-way connection the receiver has nothing to send back, so every
// frame is answered by a pure ACK segment; on a duplex connection the
// response carries the request's ACK and the next request the response's.
// Run it at one P to match the request ledger:
//
//	go test -run '^$' -bench LoopbackSegments -cpu 1 -benchtime 50000x ./internal/compart
//
// Other traffic in the network namespace inflates segs/rt; on a quiet host it
// reads 4 for two one-way connections and 2 for one duplex connection.
func BenchmarkLoopbackSegments(b *testing.B) {
	const frame = 84 // a one-update group frame with its header
	b.Run("duplex", func(b *testing.B) {
		req, resp := loopbackConn(b)
		benchRoundTrips(b, frame, req, req, resp, resp)
	})
	b.Run("two-oneway", func(b *testing.B) {
		reqOut, reqIn := loopbackConn(b)
		respIn, respOut := loopbackConn(b)
		benchRoundTrips(b, frame, reqOut, respIn, reqIn, respOut)
	})
}

// benchRoundTrips runs b.N round trips: the client writes a frame to out and
// reads the answer from in; an echo goroutine reads each frame from peerIn
// and answers on peerOut.
func benchRoundTrips(b *testing.B, size int, out, in, peerIn, peerOut net.Conn) {
	go func() {
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(peerIn, buf); err != nil {
				return
			}
			if _, err := peerOut.Write(buf); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, size)
	roundTrip := func() {
		if _, err := out.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(in, buf); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	segs0, err := tcpOutSegs()
	if err != nil {
		b.Skipf("no TCP segment counter: %v", err)
	}
	cpu0 := processCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
	cpu := processCPU() - cpu0
	segs1, err := tcpOutSegs()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(segs1-segs0)/float64(b.N), "segs/rt")
	b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/rt")
}

// loopbackConn returns the two ends of a fresh loopback TCP connection,
// closed when the benchmark ends.
func loopbackConn(b *testing.B) (dialed, accepted net.Conn) {
	b.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	dialed, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	accepted, err = l.Accept()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		dialed.Close()
		accepted.Close()
	})
	return dialed, accepted
}

// tcpOutSegs reads the namespace-wide count of TCP segments sent.
func tcpOutSegs() (uint64, error) {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var header []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Tcp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, name := range header {
			if name == "OutSegs" && i < len(fields) {
				return strconv.ParseUint(fields[i], 10, 64)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("/proc/net/snmp has no Tcp OutSegs")
}

// processCPU is the user plus system time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
