package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// RingSink keeps the last N events in memory. It is the test-facing sink:
// cheap, allocation-bounded, and snapshotable in emission order — the order
// of Seq, which Observer.Emit stamps before the sink's lock is taken, so
// concurrent emitters can reach the sink in another. A zero capacity
// defaults to 4096.
type RingSink struct {
	mu      sync.Mutex
	events  []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewRingSink returns a ring sink retaining the most recent capacity events.
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = 4096
	}
	return &RingSink{events: make([]Event, capacity)}
}

// Emit implements Sink.
func (r *RingSink) Emit(e Event) {
	r.mu.Lock()
	if r.wrapped {
		r.dropped++
	}
	r.events[r.next] = e
	// An event that lost the race to the lock moves back past the
	// later-stamped ones, at most to the oldest retained slot.
	n, retained := len(r.events), r.next+1
	if r.wrapped {
		retained = n
	}
	for i, k := r.next, 1; k < retained; k++ {
		prev := (i + n - 1) % n
		if r.events[prev].Seq <= r.events[i].Seq {
			break
		}
		r.events[prev], r.events[i] = r.events[i], r.events[prev]
		i = prev
	}
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// Events returns the retained events in emission order.
func (r *RingSink) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		return append([]Event(nil), r.events[:r.next]...)
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Dropped reports how many events were overwritten after the ring wrapped.
func (r *RingSink) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Find returns the retained events matching kind (all kinds when
// KindUnknown) and junction (all junctions when ""), in emission order.
func (r *RingSink) Find(kind Kind, junction string) []Event {
	var out []Event
	for _, e := range r.Events() {
		if kind != KindUnknown && e.Kind != kind {
			continue
		}
		if junction != "" && e.Junction != junction {
			continue
		}
		out = append(out, e)
	}
	return out
}

// jsonEvent is the wire form of an Event: the kind as its dotted name, the
// timestamp as RFC3339Nano, zero-valued fields omitted.
type jsonEvent struct {
	Seq      uint64 `json:"seq"`
	At       string `json:"at"`
	Kind     string `json:"kind"`
	Junction string `json:"junction,omitempty"`
	Key      string `json:"key,omitempty"`
	Truth    string `json:"truth,omitempty"`
	Peer     string `json:"peer,omitempty"`
	N        int64  `json:"n,omitempty"`
	DurNs    int64  `json:"dur_ns,omitempty"`
	Err      string `json:"err,omitempty"`
}

// JSONLSink streams events as one JSON object per line (csaw-bench -trace).
// Writes are buffered; call Flush (or Close the underlying writer after
// Flush) before reading the output.
type JSONLSink struct {
	mu sync.Mutex
	w  *bufio.Writer
}

// NewJSONLSink wraps w in a line-buffered JSON event stream.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	je := jsonEvent{
		Seq:      e.Seq,
		At:       e.At.Format(time.RFC3339Nano),
		Kind:     e.Kind.String(),
		Junction: e.Junction,
		Key:      e.Key,
		Truth:    e.Truth,
		Peer:     e.Peer,
		N:        e.N,
		DurNs:    int64(e.Dur),
		Err:      e.Err,
	}
	b, err := json.Marshal(je)
	if err != nil {
		return
	}
	s.mu.Lock()
	_, _ = s.w.Write(b)
	_ = s.w.WriteByte('\n')
	s.mu.Unlock()
}

// Flush drains buffered lines to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// ValidateJSONL checks that every line of r parses as a trace event with a
// non-empty kind and a positive sequence number, returning the number of
// valid events. It is the contract check behind the CI trace-smoke step.
func ValidateJSONL(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	n := 0
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(sc.Bytes(), &je); err != nil {
			return n, fmt.Errorf("obsv: line %d: %v", line, err)
		}
		if je.Kind == "" || je.Kind == "unknown" {
			return n, fmt.Errorf("obsv: line %d: missing or unknown kind", line)
		}
		if je.Seq == 0 {
			return n, fmt.Errorf("obsv: line %d: missing seq", line)
		}
		if _, err := time.Parse(time.RFC3339Nano, je.At); err != nil {
			return n, fmt.Errorf("obsv: line %d: bad timestamp: %v", line, err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}
