package compart

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
)

// The TCP transport carries Messages across real sockets between two
// Networks running in different processes (or in the same process for
// tests): a Server injects what it reads into its Network, a ReconnectClient
// writes what it is handed. Frames are length-prefixed; the body encodes the
// Message fields with the small codec below. This mirrors libcompart's
// channel wrappers over OS IPC (paper §3).

// maxFrame bounds a single message frame (16 MiB) to protect receivers from
// corrupt or hostile length prefixes. The limit is enforced symmetrically:
// senders refuse to emit oversized frames (ErrFrameTooLarge) rather than
// shipping bytes the receiver is guaranteed to reject.
const maxFrame = 16 << 20

// maxFieldLen bounds the From/To/Key string fields, whose lengths are
// encoded as uint16 on the wire.
const maxFieldLen = 1<<16 - 1

// heartbeatKey marks transport-level heartbeat frames. The NUL prefix keeps
// it out of the application key namespace; heartbeats are answered by the
// server on the same connection and never injected into the Network.
const heartbeatKey = "\x00compart:hb"

// Errors reported by the frame codec and transport senders.
var (
	// ErrFieldTooLong is returned when a From/To/Key field exceeds the
	// uint16 length encoding — previously such fields were silently
	// truncated, producing undecodable frames.
	ErrFieldTooLong = errors.New("compart: string field exceeds 64 KiB frame limit")
	// ErrFrameTooLarge is returned when an encoded frame would exceed
	// maxFrame; receivers kill connections carrying such frames, so senders
	// must refuse them up front.
	ErrFrameTooLarge = errors.New("compart: frame exceeds 16 MiB limit")
)

// EncodeMessage serializes a message into a self-delimiting byte frame
// (excluding the outer length prefix). It fails with ErrFieldTooLong when a
// string field cannot be length-prefixed losslessly, and with
// ErrFrameTooLarge when the total frame would exceed maxFrame.
func EncodeMessage(m Message) ([]byte, error) { return AppendMessage(nil, m) }

// AppendMessage appends the frame encoding of m to dst and returns the
// extended buffer, growing dst at most once. A sender may reuse its buffer
// across calls once the frames in it are written; ReconnectClient keeps one
// such buffer, appending each frame behind the unwritten ones and dropping
// the written ones from its front. On error dst is returned unchanged.
func AppendMessage(dst []byte, m Message) ([]byte, error) { return appendMessage(dst, &m) }

// appendFrame appends m's wire encoding, length prefix included, to dst. On
// error dst is returned unchanged.
func appendFrame(dst []byte, m *Message) ([]byte, error) {
	buf, err := appendMessage(append(dst, 0, 0, 0, 0), m)
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(buf[len(dst):], uint32(len(buf)-len(dst)-4))
	return buf, nil
}

// appendMessage is AppendMessage on a message it does not copy.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	for _, f := range [...]struct{ name, val string }{
		{"From", m.From}, {"To", m.To}, {"Key", m.Key},
	} {
		if len(f.val) > maxFieldLen {
			return dst, fmt.Errorf("%w: %s is %d bytes", ErrFieldTooLong, f.name, len(f.val))
		}
	}
	size := frameSize(m)
	if size > maxFrame {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	buf := dst
	if n := len(buf) + size; cap(buf) < n {
		buf = make([]byte, len(dst), n)
		copy(buf, dst)
	}
	buf = append(buf, byte(m.Kind))
	if m.Flag {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendStr(buf, m.From)
	buf = appendStr(buf, m.To)
	buf = appendStr(buf, m.Key)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Payload)))
	buf = append(buf, m.Payload...)
	return buf, nil
}

// frameSize is the encoded size of m: kind, flag, three length-prefixed
// strings and the length-prefixed payload.
func frameSize(m *Message) int {
	return 1 + 1 + varStrLen(m.From) + varStrLen(m.To) + varStrLen(m.Key) + 4 + len(m.Payload)
}

// DecodeMessage parses a frame produced by EncodeMessage.
func DecodeMessage(buf []byte) (Message, error) {
	var m Message
	err := decodeMessageIn(&m, buf, nil, false)
	return m, err
}

// decodeMessageIn parses one frame into m, writing every field; si
// (optional) interns its address strings. aliasPayload skips the payload
// copy: m.Payload is then a view of buf, lent for as long as buf is (a frame
// read in place, handed on for the length of one Network.Send).
func decodeMessageIn(m *Message, buf []byte, si strIntern, aliasPayload bool) error {
	if len(buf) < 2 {
		return fmt.Errorf("compart: short frame (%d bytes)", len(buf))
	}
	m.Kind = MessageKind(buf[0])
	m.Flag = buf[1] == 1
	rest := buf[2:]
	var err error
	if m.From, rest, err = takeStrIn(rest, si); err != nil {
		return err
	}
	if m.To, rest, err = takeStrIn(rest, si); err != nil {
		return err
	}
	if m.Key, rest, err = takeStrIn(rest, si); err != nil {
		return err
	}
	if len(rest) < 4 {
		return fmt.Errorf("compart: truncated payload length")
	}
	n := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint32(len(rest)) != n {
		return fmt.Errorf("compart: payload length %d but %d bytes remain", n, len(rest))
	}
	switch {
	case n == 0:
		m.Payload = nil
	case aliasPayload:
		m.Payload = rest
	default:
		m.Payload = append([]byte(nil), rest...)
	}
	return nil
}

// strIntern dedupes the small, repetitive universe of junction addresses and
// keys a connection carries, so decoding a message's three strings is
// allocation-free after first sight. Single-goroutine use (one per
// serveConn). Capped so a pathological key universe degrades to plain
// allocation rather than unbounded growth.
type strIntern map[string]string

// maxIntern bounds the cache; junction FQ names plus live KV keys of a
// multi-location deployment fit comfortably, and overflow just loses the
// dedup.
const maxIntern = 8192

func (si strIntern) get(b []byte) string {
	if s, ok := si[string(b)]; ok { // lookup with string(b) does not allocate
		return s
	}
	s := string(b)
	if len(si) < maxIntern {
		si[s] = s
	}
	return s
}

func varStrLen(s string) int { return 2 + len(s) }

// appendStr length-prefixes s; callers must have validated
// len(s) <= maxFieldLen (EncodeMessage does).
func appendStr(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// takeStrIn reads one length-prefixed string, interned when si is set.
func takeStrIn(buf []byte, si strIntern) (string, []byte, error) {
	if len(buf) < 2 {
		return "", nil, fmt.Errorf("compart: truncated string length")
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < n {
		return "", nil, fmt.Errorf("compart: truncated string body")
	}
	if si != nil {
		return si.get(buf[:n]), buf[n:], nil
	}
	return string(buf[:n]), buf[n:], nil
}

// writeFrame length-prefixes body onto w in one vectored write (one writev
// on a socket): the server's heartbeat pong, and tests' frame streams.
func writeFrame(w io.Writer, body []byte) error {
	if len(body) > maxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	bufs := net.Buffers{hdr[:], body}
	_, err := bufs.WriteTo(w)
	return err
}

// frameReader reads length-prefixed frames off a connection in place. A
// frame that fits the bufio.Reader's buffer is returned as a view of it, and
// a larger one is read into the reader's scratch, kept for the next large
// frame unless it grew past keepOut. Either way a body is valid only until
// the next call: what the caller keeps of it, it copies.
type frameReader struct {
	r       *bufio.Reader
	scratch []byte
}

// newFrameReader reads frames off r, through r itself when it is a
// bufio.Reader already (bufio.NewReader returns it).
func newFrameReader(r io.Reader) *frameReader { return &frameReader{r: bufio.NewReader(r)} }

// next returns the next frame's body, borrowed until the following call.
func (fr *frameReader) next() ([]byte, error) {
	if cap(fr.scratch) > keepOut {
		fr.scratch = nil
	}
	hdr, err := fr.r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrame {
		return nil, fmt.Errorf("compart: frame of %d bytes exceeds limit", n)
	}
	if 4+n <= fr.r.Size() {
		// Discard only moves the read offset: the bytes stay in the buffer
		// until the next read refills it.
		b, err := fr.r.Peek(4 + n)
		if err != nil {
			return nil, err
		}
		_, _ = fr.r.Discard(4 + n)
		return b[4:], nil
	}
	_, _ = fr.r.Discard(4)
	if cap(fr.scratch) < n {
		fr.scratch = make([]byte, n)
	}
	body := fr.scratch[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// ServerStats aggregates per-server transport counters. Every frame is one
// message, so at quiescence Frames is the number of messages injected into
// the network.
type ServerStats struct {
	// Conns counts connections accepted over the server's lifetime.
	Conns uint64
	// Frames counts frames decoded and injected into the network.
	Frames uint64
	// DecodeErrors counts well-framed bodies that failed DecodeMessage.
	// Such frames are dropped and counted; the connection keeps draining
	// (the outer length prefix keeps the stream in sync).
	DecodeErrors uint64
	// Heartbeats counts heartbeat pings answered.
	Heartbeats uint64
}

// Server exposes a Network's endpoints over TCP. Every decoded frame is
// injected with Network.Send, so link configuration and fault injection
// apply to remote traffic too.
type Server struct {
	net *Network
	l   net.Listener
	wg  sync.WaitGroup

	conns        atomic.Uint64
	frames       atomic.Uint64
	decodeErrors atomic.Uint64
	heartbeats   atomic.Uint64

	mu      sync.Mutex
	closed  bool
	connSet map[net.Conn]bool
}

// ServeTCP starts accepting connections on l, delivering received messages
// into n. The returned Server owns the listener.
func ServeTCP(n *Network, l net.Listener) *Server {
	s := &Server{net: n, l: l, connSet: map[net.Conn]bool{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.l.Addr() }

// Stats returns a snapshot of the server's transport counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Conns:        s.conns.Load(),
		Frames:       s.frames.Load(),
		DecodeErrors: s.decodeErrors.Load(),
		Heartbeats:   s.heartbeats.Load(),
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.connSet[conn] = true
		s.mu.Unlock()
		setNoDelay(conn)
		s.conns.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.connSet, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	fr := newFrameReader(conn)
	// Per-connection intern cache: acks and groups repeat the same few
	// addresses tens of thousands of times a second.
	si := make(strIntern)
	for {
		body, err := fr.next()
		if err != nil {
			// Framing/IO error: the stream is unrecoverable.
			return
		}
		// The frame is read in place and the payload (a group's members) is
		// a view of it, lent to the network for the one Send below: whoever
		// keeps bytes of it copies them (Network.Send).
		var msg Message
		if err := decodeMessageIn(&msg, body, si, true); err != nil {
			// The frame body is garbage but the outer length prefix kept
			// the stream in sync: count it and keep draining.
			s.decodeErrors.Add(1)
			continue
		}
		if msg.Kind == KindControl && msg.Key == heartbeatKey {
			// Answer transport heartbeats in place (pong echoes the ping's
			// payload). serveConn is this connection's only writer.
			s.heartbeats.Add(1)
			if writeFrame(conn, body) != nil {
				return
			}
			continue
		}
		s.frames.Add(1)
		// Send errors (down endpoint etc.) are invisible to the remote
		// sender, exactly like datagram loss.
		_ = s.net.Send(msg)
		if msg.Kind == KindAck && nextFrameIsAck(fr.r) {
			// An ack may wake the sender it completes, and Go runs the
			// goroutine readied last first: delivering the next ack at once
			// would run its sender ahead of this one, so senders acked in
			// one read would resume last-first and two in lockstep would
			// swap places every round. Yielding runs each in ack order.
			runtime.Gosched()
		}
	}
}

// nextFrameIsAck reports whether r already holds the start of a KindAck
// frame: its 4-byte length and the kind byte that opens its body.
func nextFrameIsAck(r *bufio.Reader) bool {
	if r.Buffered() < 5 {
		return false
	}
	b, _ := r.Peek(5)
	return MessageKind(b[4]) == KindAck
}

// Close stops the server and closes all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.connSet))
	for c := range s.connSet {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	_ = s.l.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// setNoDelay keeps TCP_NODELAY explicitly enabled (Go's default) on both
// transport directions. Coalescing happens at the application level — every
// write a ReconnectClient makes takes all the frames its outbound buffer
// holds unwritten, a sender's on an idle connection as much as the pump's
// on a backlog — so Nagle's algorithm would only add delay on top of
// already-batched writes, never save a packet.
func setNoDelay(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
}
