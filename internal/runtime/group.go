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
//	[uint64 lo] [uvarint n] n × ( [kind | flag<<7] [uvarint len] key [uvarint len] data )
//
// lo is the pair sequence of the first member; member i carries lo+i. A
// member's kind is compart.KindProp or compart.KindData, and its data is the
// serialized value of a write (empty for a proposition). A sender encodes
// into a buffer it keeps (its window's, under sendMu) and lends it to the
// substrate for the one send, so a group allocates nothing once the buffer
// has grown to its width.
//
// Decoding checks every length against the bytes that remain, and a payload
// that does not decode exactly — a wrong count, trailing bytes, a length past
// the end, an unknown kind — is dropped whole and not acknowledged.

// groupFlag is the member byte's flag bit; the low bits hold the kind.
const groupFlag = 0x80

// minGroupMember is the smallest encoded member: its kind byte and two empty
// lengths.
const minGroupMember = 3

// appendGroup appends the encoding of the group ups, whose first member takes
// sequence lo, to dst, growing it at most once.
func appendGroup(dst []byte, lo uint64, ups []remoteUpdate) []byte {
	size := 8 + uvarintLen(len(ups))
	for i := range ups {
		u := &ups[i]
		size += 1 + uvarintLen(len(u.key)) + len(u.key) + uvarintLen(len(u.payload)) + len(u.payload)
	}
	buf := binary.BigEndian.AppendUint64(slices.Grow(dst, size), lo)
	buf = binary.AppendUvarint(buf, uint64(len(ups)))
	for i := range ups {
		u := &ups[i]
		b := byte(u.kind)
		if u.flag {
			b |= groupFlag
		}
		buf = append(buf, b)
		buf = binary.AppendUvarint(buf, uint64(len(u.key)))
		buf = append(buf, u.key...)
		buf = binary.AppendUvarint(buf, uint64(len(u.payload)))
		buf = append(buf, u.payload...)
	}
	return buf
}

func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// groupMember is one decoded member; key and data point into the payload.
type groupMember struct {
	kind      compart.MessageKind
	flag      bool
	key, data []byte
}

// openGroup reads a group payload's header: the first sequence, the member
// count and the members' bytes. The count is held to the bytes that remain,
// so a receiver may size for it before decoding a member, and the sequence
// range to one a sender can have assigned.
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
	if count == 0 || count > uint64(len(members)/minGroupMember) || lo == 0 || lo+count-1 < lo {
		return 0, 0, nil, false
	}
	return lo, int(count), members, true
}

// nextMember reads the member at the front of p and returns the bytes behind
// it; ok is false for an unknown kind or a length past the end.
func nextMember(p []byte) (m groupMember, rest []byte, ok bool) {
	if len(p) == 0 {
		return m, nil, false
	}
	m.kind, m.flag = compart.MessageKind(p[0]&^groupFlag), p[0]&groupFlag != 0
	if m.kind != compart.KindProp && m.kind != compart.KindData {
		return m, nil, false
	}
	if m.key, p, ok = takeBytes(p[1:]); !ok {
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
// n/2 members under the original lo, the rest under lo+n/2. ok is false for a
// group of one, which cannot be split, and for a malformed payload.
func splitGroup(p []byte) (head, tail []byte, ok bool) {
	lo, n, members, ok := openGroup(p)
	if !ok || n < 2 {
		return nil, nil, false
	}
	half, rest := n/2, members
	for i := 0; i < half; i++ {
		if _, rest, ok = nextMember(rest); !ok {
			return nil, nil, false
		}
	}
	at := len(members) - len(rest)
	return regroup(lo, half, members[:at]), regroup(lo+uint64(half), n-half, members[at:]), true
}

// regroup builds a group payload around n already-encoded members.
func regroup(lo uint64, n int, members []byte) []byte {
	buf := make([]byte, 8, 8+uvarintLen(n)+len(members))
	binary.BigEndian.PutUint64(buf, lo)
	buf = binary.AppendUvarint(buf, uint64(n))
	return append(buf, members...)
}
