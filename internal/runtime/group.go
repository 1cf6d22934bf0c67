package runtime

import (
	"encoding/binary"
	"slices"

	"csaw/internal/compart"
)

// A delivery group crosses the substrate as one compart.KindGroup message:
// From and To are the sending and receiving junctions, written once, and the
// payload is
//
//	[uint64 lo] [uvarint n] members
//	member: [kind | run<<6 | flag<<7] [uvarint count, if run] [uvarint len] key [uvarint len] data
//
// lo is the pair sequence of the first update and n the number of updates,
// so the group holds the sequences lo..lo+n-1 in member order. A member's
// kind is compart.KindProp or compart.KindData, and its data is the
// serialized value of a write (empty for a proposition). A member with the
// run bit stands for count ≥ 2 consecutive identical updates — same kind,
// flag, key and data — each with a sequence of its own; a member without it
// is one update. Runs are the sender's fold (foldUpdate): a par of 96
// asserts of one proposition is one member on the wire, while a group with
// no repeats encodes as if runs did not exist. Sequences, acknowledgments,
// trace events and the remote counters stay per update.
//
// A sender encodes into a buffer it keeps (its window's, under sendMu) and
// lends it to the substrate for the one send, so a group allocates nothing
// once the buffer has grown to its width.
//
// Decoding checks every length against the bytes that remain, and a payload
// that does not decode exactly — a count over maxGroupSeqs, a run of fewer
// than two, members whose updates do not add up to n, trailing bytes, a
// length past the end, an unknown kind — is dropped whole and not
// acknowledged.

// groupFlag is the member byte's flag bit and groupRun its run bit; the low
// bits hold the kind.
const (
	groupFlag = 0x80
	groupRun  = 0x40
)

// minGroupMember is the smallest encoded member: its kind byte and two empty
// lengths.
const minGroupMember = 3

// maxGroupSeqs bounds a group's update count and each run's, which the
// members' bytes no longer bound once a run member may stand for many
// updates. A group's updates come from one compiled par or straight-line
// run, one arm each, so a group this wide would take 2^24 compiled arms. A
// count past it is a corrupt payload, which the receiver would otherwise
// count, trace and sum (into an int, and kv.Update.N) update by update.
const maxGroupSeqs = 1 << 24

// appendGroup appends the encoding of the group ups, whose first update takes
// sequence lo, to dst, growing it at most once. An entry whose n is 2 or more
// is a run member.
func appendGroup(dst []byte, lo uint64, ups []remoteUpdate) []byte {
	size, n := 8, 0
	for i := range ups {
		size += memberSize(&ups[i])
		n += ups[i].count()
	}
	size += uvarintLen(n)
	buf := binary.BigEndian.AppendUint64(slices.Grow(dst, size), lo)
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := range ups {
		buf = appendMember(buf, &ups[i])
	}
	return buf
}

// memberSize is the length of u's member encoding.
func memberSize(u *remoteUpdate) int {
	size := 1 + uvarintLen(len(u.key)) + len(u.key) + uvarintLen(len(u.payload)) + len(u.payload)
	if u.n > 1 {
		size += uvarintLen(u.n)
	}
	return size
}

// appendMember appends u's member encoding to buf.
func appendMember(buf []byte, u *remoteUpdate) []byte {
	b := byte(u.kind)
	if u.flag {
		b |= groupFlag
	}
	if u.n > 1 {
		buf = binary.AppendUvarint(append(buf, b|groupRun), uint64(u.n))
	} else {
		buf = append(buf, b)
	}
	buf = binary.AppendUvarint(buf, uint64(len(u.key)))
	buf = append(buf, u.key...)
	buf = binary.AppendUvarint(buf, uint64(len(u.payload)))
	return append(buf, u.payload...)
}

func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// groupMember is one decoded member; key and data point into the payload,
// and n is how many updates it stands for (1, or a run's count).
type groupMember struct {
	kind      compart.MessageKind
	flag      bool
	n         int
	key, data []byte
}

// openGroup reads a group payload's header: the first sequence, the update
// count and the members' bytes. The count is held to maxGroupSeqs and the
// sequence range to one a sender can have assigned; that the members add up
// to it is the decoder's to check, member by member.
func openGroup(p []byte) (lo uint64, n int, members []byte, ok bool) {
	if len(p) < 8 {
		return 0, 0, nil, false
	}
	lo = binary.BigEndian.Uint64(p)
	count, w := binary.Uvarint(p[8:])
	if w <= 0 {
		return 0, 0, nil, false
	}
	members = p[8+w:]
	// Sequences start at 1 and the range may not wrap.
	if count == 0 || count > maxGroupSeqs || len(members) < minGroupMember || lo == 0 || lo+count-1 < lo {
		return 0, 0, nil, false
	}
	return lo, int(count), members, true
}

// nextMember reads the member at the front of p and returns the bytes behind
// it; ok is false for an unknown kind, a run count under 2 or over
// maxGroupSeqs, or a length past the end.
func nextMember(p []byte) (m groupMember, rest []byte, ok bool) {
	if len(p) == 0 {
		return m, nil, false
	}
	b := p[0]
	m.kind, m.flag, m.n = compart.MessageKind(b&^(groupFlag|groupRun)), b&groupFlag != 0, 1
	if m.kind != compart.KindProp && m.kind != compart.KindData {
		return m, nil, false
	}
	p = p[1:]
	if b&groupRun != 0 {
		count, w := binary.Uvarint(p)
		if w <= 0 || count < 2 || count > maxGroupSeqs {
			return m, nil, false
		}
		m.n, p = int(count), p[w:]
	}
	if m.key, p, ok = takeBytes(p); !ok {
		return m, nil, false
	}
	if m.data, p, ok = takeBytes(p); !ok {
		return m, nil, false
	}
	return m, p, true
}

// takeBytes reads one uvarint-length-prefixed field.
func takeBytes(p []byte) (field, rest []byte, ok bool) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return nil, nil, false
	}
	end := w + int(n)
	return p[w:end:end], p[end:], true
}

// splitGroup halves a group payload into two consecutive groups: the first
// n/2 updates under the original lo, the rest under lo+n/2. A run the cut
// falls inside becomes two runs, one closing the head and one opening the
// tail. ok is false for a group of one, which cannot be split, and for a
// malformed payload.
func splitGroup(p []byte) (head, tail []byte, ok bool) {
	lo, n, members, ok := openGroup(p)
	if !ok || n < 2 {
		return nil, nil, false
	}
	half, rest := n/2, members
	var m groupMember
	seqs, start := 0, 0 // updates read so far; where m begins
	for seqs < half {
		start = len(members) - len(rest)
		if m, rest, ok = nextMember(rest); !ok {
			return nil, nil, false
		}
		seqs += m.n
	}
	at := len(members) - len(rest)
	if seqs == half {
		return regroup(lo, half, members[:at], nil), regroup(lo+uint64(half), n-half, members[at:], nil), true
	}
	// The cut falls inside m: its updates before the cut close the head, the
	// rest open the tail.
	u := remoteUpdate{kind: m.kind, flag: m.flag, key: string(m.key), payload: m.data, n: m.n - (seqs - half)}
	head = regroup(lo, half, members[:start], appendMember(nil, &u))
	u.n = seqs - half
	return head, regroup(lo+uint64(half), n-half, appendMember(nil, &u), members[at:]), true
}

// regroup builds a group payload of n updates around already-encoded members,
// a then b.
func regroup(lo uint64, n int, a, b []byte) []byte {
	buf := make([]byte, 8, 8+uvarintLen(n)+len(a)+len(b))
	binary.BigEndian.PutUint64(buf, lo)
	buf = binary.AppendUvarint(buf, uint64(n))
	return append(append(buf, a...), b...)
}
