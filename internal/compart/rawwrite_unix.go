//go:build unix

package compart

import (
	"net"
	"syscall"
)

// rawWriter is a sender's direct write to the live socket: one write(2)
// through the connection's raw handle, made by a callback that returns true
// so it never waits for the socket to become writable. A connection without
// a file descriptor (net.Pipe) has no handle, and the pump writes all its
// frames.
// Guarded by ReconnectClient.mu.
type rawWriter struct {
	rc syscall.RawConn
	// fn is bound once per client and reads its frame from the fields
	// below, so a direct write allocates nothing.
	fn    func(fd uintptr) bool
	frame []byte
	n     int
	err   error
}

func (w *rawWriter) attach(conn net.Conn) {
	w.rc = nil
	if sc, ok := conn.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			w.rc = rc
		}
	}
}

func (w *rawWriter) detach() { w.rc = nil }

func (w *rawWriter) attached() bool { return w.rc != nil }

// write makes one write(2) of frame and returns how many bytes the socket
// took. On an error, EAGAIN included, it took none.
func (w *rawWriter) write(frame []byte) (int, error) {
	if w.fn == nil {
		w.fn = func(fd uintptr) bool {
			w.n, w.err = syscall.Write(int(fd), w.frame)
			return true
		}
	}
	w.frame = frame
	err := w.rc.Write(w.fn)
	n, werr := w.n, w.err
	w.frame, w.err = nil, nil
	if err == nil {
		err = werr
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}
