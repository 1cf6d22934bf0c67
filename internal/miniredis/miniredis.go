// Package miniredis is a from-scratch, single-threaded key-value server in
// the mould of the Redis version the paper evaluates (§2: "a widely-used
// NoSQL database that is implemented as a single-threaded server").
//
// All commands execute on one command loop goroutine, so operations are
// totally ordered exactly as in Redis; the object-size query SizeOf is
// answered there too, from the store itself. A GET or SET through the direct
// API allocates nothing: each command's one-slot reply channel is recycled
// once its reply was received. The server exposes a direct API for
// embedding behind C-Saw junctions (the paper's typified instances), a
// minimal RESP wire protocol for TCP clients, and whole-store
// snapshot/restore built on the serial framework — the primitive behind the
// checkpointing, replication and fail-over architectures.
package miniredis

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"

	"csaw/internal/serial"
)

// ErrClosed is returned for commands after Close.
var ErrClosed = errors.New("miniredis: server closed")

// Reserved internal command names (not reachable over RESP: NUL-prefixed).
const (
	cmdSnapshot = "\x00SNAPSHOT"
	cmdRestore  = "\x00RESTORE"
	cmdSizeOf   = "\x00SIZEOF"
)

// Command names.
const (
	CmdGet    = "GET"
	CmdSet    = "SET"
	CmdDel    = "DEL"
	CmdExists = "EXISTS"
	CmdPing   = "PING"
	CmdDBSize = "DBSIZE"
	CmdStrlen = "STRLEN"
)

// Command is one request to the server.
type Command struct {
	Name  string
	Key   string
	Value []byte
}

// Reply is the server's answer.
type Reply struct {
	Value []byte // bulk reply (GET)
	Int   int64  // integer reply (DEL/EXISTS/DBSIZE/STRLEN)
	Nil   bool   // key absent
	OK    bool   // simple +OK
	Err   error
}

type request struct {
	cmd  Command
	resp chan Reply
}

// replyChans recycles the one-slot reply channels of Do. A channel goes back
// only after its one reply was received, so every channel in the pool is
// empty.
var replyChans = sync.Pool{New: func() any { return make(chan Reply, 1) }}

// snapshotEntry is the serialized form of one key.
type snapshotEntry struct {
	Key   string
	Value []byte
}

// snapshotImage is the serialized store (the structure whose generated
// serializer the paper counts at 182 LoC for Redis, §10.2).
type snapshotImage struct {
	Entries []snapshotEntry
	Ops     uint64
}

// Server is a single-threaded KV server.
type Server struct {
	reqs chan request
	wg   sync.WaitGroup

	// mu orders every send on reqs before Close closes it: Do sends under
	// the read lock, Close sets closed and closes reqs under the write lock.
	mu     sync.RWMutex
	closed bool

	// Loop-owned state — touched only by the command loop. SizeOf reads an
	// object's size from data on the loop too.
	data map[string][]byte
	ops  atomic.Uint64
}

// NewServer starts the command loop.
func NewServer() *Server {
	s := &Server{
		reqs: make(chan request, 128),
		data: map[string][]byte{},
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *Server) loop() {
	defer s.wg.Done()
	for req := range s.reqs {
		req.resp <- s.apply(req.cmd)
	}
}

func (s *Server) apply(c Command) Reply {
	if c.Name == cmdSizeOf { // a query, not a command: Ops does not count it
		v, ok := s.data[c.Key]
		return Reply{Int: int64(len(v)), Nil: !ok}
	}
	s.ops.Add(1)
	switch c.Name {
	case cmdSnapshot:
		img, err := serial.Marshal(s.snapshotImage())
		return Reply{Value: img, Err: err}
	case cmdRestore:
		var img snapshotImage
		if err := serial.Unmarshal(c.Value, &img); err != nil {
			return Reply{Err: err}
		}
		s.data = make(map[string][]byte, len(img.Entries))
		for _, e := range img.Entries {
			s.data[e.Key] = e.Value
		}
		return Reply{OK: true}
	case CmdGet:
		v, ok := s.data[c.Key]
		if !ok {
			return Reply{Nil: true}
		}
		return Reply{Value: v}
	case CmdSet:
		s.data[c.Key] = c.Value
		return Reply{OK: true}
	case CmdDel:
		if _, ok := s.data[c.Key]; ok {
			delete(s.data, c.Key)
			return Reply{Int: 1}
		}
		return Reply{Int: 0}
	case CmdExists:
		if _, ok := s.data[c.Key]; ok {
			return Reply{Int: 1}
		}
		return Reply{Int: 0}
	case CmdPing:
		return Reply{OK: true}
	case CmdDBSize:
		return Reply{Int: int64(len(s.data))}
	case CmdStrlen:
		return Reply{Int: int64(len(s.data[c.Key]))}
	default:
		return Reply{Err: fmt.Errorf("miniredis: unknown command %q", c.Name)}
	}
}

// Do executes one command on the command loop. A command that races Close
// either runs before the loop stops or returns ErrClosed.
func (s *Server) Do(c Command) Reply {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Reply{Err: ErrClosed}
	}
	resp := replyChans.Get().(chan Reply)
	s.reqs <- request{cmd: c, resp: resp}
	s.mu.RUnlock()
	rep := <-resp
	replyChans.Put(resp)
	return rep
}

// Get is a convenience wrapper.
func (s *Server) Get(key string) ([]byte, bool, error) {
	r := s.Do(Command{Name: CmdGet, Key: key})
	if r.Err != nil {
		return nil, false, r.Err
	}
	return r.Value, !r.Nil, nil
}

// Set is a convenience wrapper.
func (s *Server) Set(key string, value []byte) error {
	return s.Do(Command{Name: CmdSet, Key: key, Value: value}).Err
}

// SizeOf returns the size of key's value, answered on the command loop (the
// paper's "custom table that maps keys to object sizes", §5.2, is the store
// itself). It is not counted in Ops.
func (s *Server) SizeOf(key string) (int, bool) {
	r := s.Do(Command{Name: cmdSizeOf, Key: key})
	return int(r.Int), r.Err == nil && !r.Nil
}

// Ops returns the number of commands applied so far; SizeOf queries are not
// commands.
func (s *Server) Ops() uint64 { return s.ops.Load() }

// snapshotImage builds the serializable image; loop-owned.
func (s *Server) snapshotImage() snapshotImage {
	img := snapshotImage{Ops: s.ops.Load()}
	img.Entries = make([]snapshotEntry, 0, len(s.data))
	for k, v := range s.data {
		img.Entries = append(img.Entries, snapshotEntry{Key: k, Value: v})
	}
	return img
}

// Snapshot serializes the whole store on the command loop, so it is a
// consistent point-in-time image. The loop is blocked while serializing —
// exactly the checkpointing pause the Fig. 23a experiment measures.
func (s *Server) Snapshot() ([]byte, error) {
	rep := s.Do(Command{Name: cmdSnapshot})
	return rep.Value, rep.Err
}

// Restore replaces the store contents from a snapshot, on the command loop.
func (s *Server) Restore(img []byte) error {
	return s.Do(Command{Name: cmdRestore, Value: img}).Err
}

// Close stops the command loop. In-flight commands complete first.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.reqs)
	s.mu.Unlock()
	s.wg.Wait()
}

// ServeTCP speaks the RESP-subset protocol on the listener until it closes.
func (s *Server) ServeTCP(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		args, err := readRESP(r)
		if err != nil {
			return
		}
		if len(args) == 0 {
			continue
		}
		writeReply(w, s.doWire(args))
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// doWire runs one command a RESP client sent. The NUL-prefixed names are the
// server's own (snapshot, restore, size), never a wire client's: they are
// refused as unknown, and the store is not touched.
func (s *Server) doWire(args [][]byte) Reply {
	if len(args[0]) > 0 && args[0][0] == 0 {
		return Reply{Err: fmt.Errorf("miniredis: unknown command %q", args[0])}
	}
	cmd := Command{Name: string(args[0])}
	if len(args) > 1 {
		cmd.Key = string(args[1])
	}
	if len(args) > 2 {
		cmd.Value = args[2]
	}
	return s.Do(cmd)
}

// readRESP parses one RESP array of bulk strings.
func readRESP(r *bufio.Reader) ([][]byte, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '*' {
		return nil, fmt.Errorf("miniredis: expected array, got %q", line)
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil || n < 0 || n > 1024 {
		return nil, fmt.Errorf("miniredis: bad array length %q", line)
	}
	args := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		hdr, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, fmt.Errorf("miniredis: expected bulk string, got %q", hdr)
		}
		ln, err := strconv.Atoi(string(hdr[1:]))
		if err != nil || ln < 0 || ln > 64<<20 {
			return nil, fmt.Errorf("miniredis: bad bulk length %q", hdr)
		}
		buf := make([]byte, ln+2)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		args = append(args, buf[:ln])
	}
	return args, nil
}

func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("miniredis: malformed line")
	}
	return line[:len(line)-2], nil
}

func writeReply(w *bufio.Writer, rep Reply) {
	switch {
	case rep.Err != nil:
		fmt.Fprintf(w, "-ERR %s\r\n", rep.Err)
	case rep.OK:
		w.WriteString("+OK\r\n")
	case rep.Nil:
		w.WriteString("$-1\r\n")
	case rep.Value != nil:
		fmt.Fprintf(w, "$%d\r\n", len(rep.Value))
		w.Write(rep.Value)
		w.WriteString("\r\n")
	default:
		fmt.Fprintf(w, ":%d\r\n", rep.Int)
	}
}
