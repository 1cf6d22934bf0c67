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
// Envelopes are built in two places: the coalescing writer packs the plain
// frames of one drained run (writeCoalesced), and a sender that already holds
// a delivery group packs it itself (PackBatch) and hands the envelope to any
// single-message carrier. Batches never nest: both pack only non-batch
// frames, the writer sends a pre-built envelope standalone, and receivers
// (Server.serveConn, Network.Send) unpack the envelope and inject the inner
// messages, so application handlers never see KindBatch.

// batchEnvelopeOverhead is the encoded size of the KindBatch envelope around
// its payload: kind, flag, three empty length-prefixed strings, and the
// payload length.
const batchEnvelopeOverhead = 1 + 1 + 3*2 + 4

// minMessageFrame is the smallest possible encoded message frame (empty
// strings, empty payload); DecodeBatch uses it to reject absurd counts
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

// PackBatch builds the KindBatch envelope carrying msgs in order, encoding
// every message straight into the envelope's payload buffer. It fails with
// ErrFrameTooLarge when the envelope would not fit one frame, and with the
// codec's error when a member cannot be framed or is itself an envelope.
func PackBatch(msgs []Message) (Message, error) {
	payload := 4
	for i := range msgs {
		if msgs[i].Kind == KindBatch {
			return Message{}, fmt.Errorf("compart: nested batch")
		}
		payload += 4 + frameSize(&msgs[i])
	}
	if batchEnvelopeOverhead+payload > maxFrame {
		return Message{}, fmt.Errorf("%w: batch of %d bytes", ErrFrameTooLarge, payload)
	}
	buf := make([]byte, 4, payload)
	binary.BigEndian.PutUint32(buf, uint32(len(msgs)))
	for i := range msgs {
		at := len(buf)
		var err error
		if buf, err = appendMessage(append(buf, 0, 0, 0, 0), &msgs[i]); err != nil {
			return Message{}, err
		}
		binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return Message{Kind: KindBatch, Payload: buf}, nil
}

// SendGroup carries a delivery group through a single-message carrier (a
// transport client's Send, a deployment uplink): several messages travel as
// one KindBatch envelope, which the far side unpacks back into one group. A
// group no envelope can hold (over the 16 MiB frame limit) goes message by
// message, in order, over the same carrier, and stops at the first carrier
// error. Either way the far side sees a prefix of the group at worst: an
// envelope arrives whole or not at all, and the per-message fallback rides
// one FIFO connection, so a later member never arrives without the earlier
// ones — the property Network.SendBatch keeps for in-process links.
func SendGroup(send func(Message) error, msgs []Message) error {
	if len(msgs) > 1 {
		if env, err := PackBatch(msgs); err == nil {
			return send(env)
		}
	}
	for _, m := range msgs {
		if err := send(m); err != nil {
			return err
		}
	}
	return nil
}

// batchBodyCount reports whether an encoded frame body is a KindBatch
// envelope and, if so, how many messages it declares.
func batchBodyCount(body []byte) (int, bool) {
	if len(body) < 2 || MessageKind(body[0]) != KindBatch {
		return 0, false
	}
	rest := body[2:]
	for i := 0; i < 3; i++ { // From, To, Key
		if len(rest) < 2 {
			return 0, true
		}
		n := int(binary.BigEndian.Uint16(rest))
		if len(rest) < 2+n {
			return 0, true
		}
		rest = rest[2+n:]
	}
	if len(rest) < 8 {
		return 0, true
	}
	return int(binary.BigEndian.Uint32(rest[4:])), true
}

// DecodeBatch unpacks the payload of a KindBatch message into its inner
// messages. The payload must be consumed exactly; any framing inconsistency
// fails the whole batch (the server counts it as one decode error). Every
// inner message owns its memory (payloads are copied out of the envelope).
func DecodeBatch(payload []byte) ([]Message, error) {
	return decodeBatch(nil, payload, nil, false)
}

// decodeBatch is DecodeBatch with an optional intern cache for the inner
// messages' From/To/Key strings. A member whose From, To or Key spells its
// predecessor's takes the predecessor's string, so a group — one sender, one
// destination, often one key — resolves its addresses once, not per member.
// With alias set the inner payloads point into the envelope buffer instead of
// being copied out — only valid when the caller owns the envelope and never
// rewrites its memory (Server.serveConn reads each frame into a fresh buffer;
// Network.Send holds a message its caller handed over). The members are
// decoded in place into dst's backing array when it has room (a connection's
// reused scratch), else into a fresh slice.
func decodeBatch(dst []Message, payload []byte, si strIntern, alias bool) ([]Message, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("compart: truncated batch count")
	}
	count := binary.BigEndian.Uint32(payload)
	rest := payload[4:]
	if uint64(count)*(4+minMessageFrame) > uint64(len(rest)) {
		return nil, fmt.Errorf("compart: batch count %d exceeds %d payload bytes", count, len(rest))
	}
	msgs := dst[:0]
	if uint32(cap(msgs)) < count {
		msgs = make([]Message, 0, count)
	}
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
		if err := decodeMessageIn(&msgs[i], rest[:n], si, prev, alias); err != nil {
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
// or more plain frames into KindBatch envelopes so the buffered writer sees
// one frame per drained run. A run whose envelope would exceed maxFrame is
// split across several envelopes; a frame too large to share an envelope goes
// out plain. A body that already is an envelope (PackBatch, built above the
// client) ends the run before it and goes out standalone, because batches
// never nest; onBatch sees it like an envelope packed here.
//
// It returns how many of the input bodies were handed to w before any error:
// callers account those as sent and the remainder as dropped, keeping the
// conservation invariant exact across connection deaths.
func writeCoalesced(w io.Writer, bodies [][]byte, onBatch func(msgs int)) (written int, err error) {
	var scratch []byte
	for start := 0; start < len(bodies); {
		if n, env := batchBodyCount(bodies[start]); env {
			if err := writeFrame(w, bodies[start]); err != nil {
				return written, err
			}
			if onBatch != nil {
				onBatch(n)
			}
			written++
			start++
			continue
		}
		size := batchEnvelopeOverhead + 4
		end := start
		for end < len(bodies) {
			if _, env := batchBodyCount(bodies[end]); env {
				break
			}
			fs := 4 + len(bodies[end])
			if end > start && size+fs > maxFrame {
				break
			}
			size += fs
			end++
		}
		if end == start+1 {
			// A lone plain frame (or one no envelope fits around).
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
