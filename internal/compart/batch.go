package compart

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// The batch frame is the transport's coalescing unit: one KindBatch envelope
// packs N already-encoded message frames so a burst of back-to-back sends
// costs one length-prefixed write (and one syscall after the flush) instead
// of N. The envelope is an ordinary Message — Kind KindBatch, empty
// From/To/Key, and a payload of
//
//	[uint32 count] ([uint32 len][message frame])*
//
// so it travels through writeFrame/readFrame/DecodeMessage unchanged.
// Envelopes are built in one place, the coalescing writer, which packs the
// frames of one drained run (writeCoalesced). Batches never nest: a
// reconnecting client refuses a KindBatch message handed to its Send, and the
// server (Server.serveConn) unpacks an envelope and injects the inner
// messages one by one, so application handlers never see KindBatch. A
// runtime delivery group is not an envelope: it is one KindGroup message,
// which the transport carries like any other.

// batchEnvelopeOverhead is the encoded size of the KindBatch envelope around
// its payload: kind, flag, three empty length-prefixed strings, and the
// payload length.
const batchEnvelopeOverhead = 1 + 1 + 3*2 + 4

// minMessageFrame is the smallest possible encoded message frame (empty
// strings, empty payload); decodeBatch uses it to reject absurd counts
// before allocating.
const minMessageFrame = 1 + 1 + 3*2 + 4

// maxCoalesce bounds how many frames a coalescing writer drains into one
// flush. It caps per-batch latency and the transient [][]byte scratch, while
// staying far above the in-flight window any one sender sustains.
const maxCoalesce = 256

// appendBatchEnvelope appends the KindBatch frame packing the given
// pre-encoded message frames to dst. Callers must have checked the total
// size against maxFrame (writeCoalesced does).
func appendBatchEnvelope(dst []byte, bodies [][]byte) []byte {
	payload := 4
	for _, b := range bodies {
		payload += 4 + len(b)
	}
	if n := len(dst) + batchEnvelopeOverhead + payload; cap(dst) < n {
		grown := make([]byte, len(dst), n)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, byte(KindBatch), 0)
	dst = append(dst, 0, 0, 0, 0, 0, 0) // empty From, To, Key
	dst = binary.BigEndian.AppendUint32(dst, uint32(payload))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(bodies)))
	for _, b := range bodies {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// decodeBatch unpacks the payload of a KindBatch envelope into its inner
// messages. The payload must be consumed exactly; any framing inconsistency
// fails the whole batch (the server counts it as one decode error). An
// optional intern cache serves the inner messages' From/To/Key strings, and a
// member whose From, To or Key spells its predecessor's takes the
// predecessor's string, so a run from one sender to one destination resolves
// its addresses once, not per member. The inner payloads point into the
// envelope buffer instead of being copied out, which is valid because the
// caller owns the envelope and never rewrites its memory (Server.serveConn
// reads each frame into a fresh buffer).
func decodeBatch(payload []byte, si strIntern) ([]Message, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("compart: truncated batch count")
	}
	count := binary.BigEndian.Uint32(payload)
	rest := payload[4:]
	if uint64(count)*(4+minMessageFrame) > uint64(len(rest)) {
		return nil, fmt.Errorf("compart: batch count %d exceeds %d payload bytes", count, len(rest))
	}
	msgs := make([]Message, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("compart: truncated batch entry %d length", i)
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return nil, fmt.Errorf("compart: batch entry %d of %d bytes but %d remain", i, n, len(rest))
		}
		msgs = msgs[:i+1]
		var prev *Message
		if i > 0 {
			prev = &msgs[i-1]
		}
		if err := decodeMessageIn(&msgs[i], rest[:n], si, prev, true); err != nil {
			return nil, fmt.Errorf("compart: batch entry %d: %w", i, err)
		}
		if msgs[i].Kind == KindBatch {
			return nil, fmt.Errorf("compart: nested batch at entry %d", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("compart: %d trailing bytes after batch", len(rest))
	}
	return msgs, nil
}

// writeCoalesced writes pre-encoded message frames to w, packing runs of two
// or more frames into KindBatch envelopes so the buffered writer sees one
// frame per drained run. A run whose envelope would exceed maxFrame is split
// across several envelopes; a frame too large to share an envelope goes out
// plain. No body is itself an envelope (ReconnectClient.Send refuses them), so
// batches never nest.
//
// It returns how many of the input bodies were handed to w before any error:
// callers account those as sent and the remainder as dropped, keeping the
// conservation invariant exact across connection deaths.
func writeCoalesced(w io.Writer, bodies [][]byte, onBatch func(msgs int)) (written int, err error) {
	var scratch []byte
	for start := 0; start < len(bodies); {
		size := batchEnvelopeOverhead + 4
		end := start
		for end < len(bodies) {
			fs := 4 + len(bodies[end])
			if end > start && size+fs > maxFrame {
				break
			}
			size += fs
			end++
		}
		if end == start+1 {
			// A lone frame (or one no envelope fits around).
			if err := writeFrame(w, bodies[start]); err != nil {
				return written, err
			}
		} else {
			scratch = appendBatchEnvelope(scratch[:0], bodies[start:end])
			if err := writeFrame(w, scratch); err != nil {
				return written, err
			}
			if onBatch != nil {
				onBatch(end - start)
			}
		}
		written += end - start
		start = end
	}
	return written, nil
}

// sizeHistBuckets is the number of power-of-two batch-size buckets: bucket b
// counts batches of 2^b .. 2^(b+1)-1 messages.
const sizeHistBuckets = 16

// SizeHist is a small power-of-two histogram of batch sizes (messages per
// KindBatch envelope) — the MsgsPerBatch summary of the conserved-stats
// layer. It is a plain value; owners mutate it under their own lock and
// expose copies in stats snapshots.
type SizeHist struct {
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Buckets [sizeHistBuckets]uint64
}

// observe records one batch of n messages.
func (h *SizeHist) observe(n int) {
	if n <= 0 {
		return
	}
	u := uint64(n)
	if h.Count == 0 || u < h.Min {
		h.Min = u
	}
	if u > h.Max {
		h.Max = u
	}
	h.Count++
	h.Sum += u
	b := bits.Len64(u) - 1
	if b >= sizeHistBuckets {
		b = sizeHistBuckets - 1
	}
	h.Buckets[b]++
}

// Mean returns the mean batch size, or 0 when no batches were observed.
func (h SizeHist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
