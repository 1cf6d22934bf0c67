package serial

// The decoder: one recursive walk of the destination against its plan,
// mirroring encode.go. The unread input is threaded through the walk as a
// parameter/return pair, as the encoder threads its output: no decoder state
// lives in memory, so advancing through the input stores no pointer and
// takes no GC write barrier. The value the walker writes escapes: Value.Set,
// which stores a decoded slice, map or pointer, keeps its receiver. The typed
// Unmarshal therefore hands it a pooled scratch value, never the caller's
// destination (DESIGN.md, "Compiled codec plans").
//
// Two hardenings over the original reflect-walk decoder (wire format
// unchanged — they only reject inputs no conforming encoder can produce):
//
//   - Container and byte lengths are validated against the remaining input
//     before MakeSlice/MakeMapWithSize or a copy, so a short corrupt frame
//     declaring a huge length fails with ErrCorrupt instead of allocating
//     gigabytes (length).
//   - Nesting depth is bounded by the decoding Config's MaxDepth, the same
//     bound the encoder enforces, so hostile inputs cannot exhaust the
//     stack. Any encoding decodes under the configuration that produced it.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// tagLabel names each wire tag the way the reflect-walk decoder's
// type-mismatch errors do.
func tagLabel(tg byte) (string, bool) {
	switch tg {
	case tagBool:
		return "bool", true
	case tagInt:
		return "int", true
	case tagUint:
		return "uint", true
	case tagFloat:
		return "float", true
	case tagString:
		return "string", true
	case tagBytes:
		return "[]byte", true
	case tagSlice:
		return "slice", true
	case tagArray:
		return "array", true
	case tagMap:
		return "map", true
	case tagStruct:
		return "struct", true
	case tagPtr:
		return "pointer", true
	}
	return "", false
}

// badTag reports a tag the destination type cannot accept: a type mismatch
// for known tags, corruption for unknown ones.
func badTag(tg byte, t reflect.Type) error {
	if label, ok := tagLabel(tg); ok {
		return fmt.Errorf("%w: encoded %s into %s", ErrCorrupt, label, t)
	}
	return fmt.Errorf("%w: unknown tag %d", ErrCorrupt, tg)
}

var errDecodeDepth = fmt.Errorf("%w: nesting exceeds max depth", ErrCorrupt)

func decode(b []byte, p *plan, v reflect.Value, depth int) ([]byte, error) {
	if len(b) == 0 {
		return b, short(b, 1)
	}
	tg := b[0]
	b = b[1:]
	if tg == tagNil || tg == tagTrunc {
		v.SetZero()
		return b, nil
	}
	// Interfaces and unserializable kinds decode only the markers above.
	if p.tag == tagIface || p.tag == tagUnsupported {
		return b, badTag(tg, p.typ)
	}
	if depth <= 0 {
		return b, errDecodeDepth
	}
	if tg != p.tag {
		return b, badTag(tg, p.typ)
	}
	var err error
	switch tg {
	case tagBool:
		if len(b) < 1 {
			return b, short(b, 1)
		}
		v.SetBool(b[0] == 1)
		return b[1:], nil
	case tagInt:
		i, n := binary.Varint(b)
		if n <= 0 {
			return b, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		v.SetInt(i)
		return b[n:], nil
	case tagUint:
		var u uint64
		if u, b, err = uvarint(b); err == nil {
			v.SetUint(u)
		}
		return b, err
	case tagFloat:
		if len(b) < 8 {
			return b, short(b, 8)
		}
		v.SetFloat(math.Float64frombits(binary.BigEndian.Uint64(b)))
		return b[8:], nil
	case tagString, tagBytes:
		var n int
		if n, b, err = length(b, 1); err != nil {
			return b, err
		}
		if tg == tagString {
			v.SetString(string(b[:n]))
		} else {
			v.SetBytes(append([]byte(nil), b[:n]...))
		}
		return b[n:], nil
	case tagSlice:
		var n int
		if n, b, err = length(b, 1); err != nil {
			return b, err
		}
		s := reflect.MakeSlice(p.typ, n, n)
		for i := 0; i < n; i++ {
			if b, err = decode(b, p.elem, s.Index(i), depth-1); err != nil {
				return b, err
			}
		}
		v.Set(s)
		return b, nil
	case tagArray:
		var n uint64
		if n, b, err = uvarint(b); err != nil {
			return b, err
		}
		if n != uint64(p.n) {
			return b, fmt.Errorf("%w: encoded array into %s", ErrCorrupt, p.typ)
		}
		for i := 0; i < p.n && err == nil; i++ {
			b, err = decode(b, p.elem, v.Index(i), depth-1)
		}
		return b, err
	case tagMap:
		return decodeMap(b, p, v, depth)
	case tagStruct:
		var n uint64
		if n, b, err = uvarint(b); err != nil {
			return b, err
		}
		decoded := 0
		for _, f := range p.fields {
			if uint64(decoded) >= n {
				break
			}
			if b, err = decode(b, f.p, v.Field(f.idx), depth-1); err != nil {
				return b, err
			}
			decoded++
		}
		if uint64(decoded) != n {
			return b, fmt.Errorf("%w: struct field count mismatch (%d encoded, %d decoded)", ErrCorrupt, n, decoded)
		}
		return b, nil
	default: // tagPtr, the one tag left
		ptr := reflect.New(p.typ.Elem())
		if b, err = decode(b, p.elem, ptr.Elem(), depth-1); err != nil {
			return b, err
		}
		v.Set(ptr)
		return b, nil
	}
}

func decodeMap(b []byte, p *plan, v reflect.Value, depth int) ([]byte, error) {
	// Each entry costs at least two bytes of wire data (key and value tags),
	// bounding the MakeMapWithSize hint by the input size.
	n, b, err := length(b, 2)
	if err != nil {
		return b, err
	}
	m := reflect.MakeMapWithSize(p.typ, n)
	// One key and one value slot are reused across entries (SetMapIndex
	// copies); reset to zero so a partial decode of the previous entry
	// cannot leak into the next.
	kslot := reflect.New(p.key.typ).Elem()
	vslot := reflect.New(p.elem.typ).Elem()
	for i := 0; i < n; i++ {
		kslot.SetZero()
		if b, err = decode(b, p.key, kslot, depth-1); err != nil {
			return b, err
		}
		vslot.SetZero()
		if b, err = decode(b, p.elem, vslot, depth-1); err != nil {
			return b, err
		}
		m.SetMapIndex(kslot, vslot)
	}
	v.Set(m)
	return b, nil
}

// short reports input that ends n bytes too soon to hold what it declares.
func short(b []byte, n int) error {
	return fmt.Errorf("%w: need %d bytes, have %d", ErrCorrupt, n, len(b))
}

func uvarint(b []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	return u, b[n:], nil
}

// length reads a container/byte length and validates it against the
// remaining input, charging at least minBytes of wire data per element.
// This makes allocation proportional to the input: a short corrupt frame
// declaring a gigabyte-scale length fails with ErrCorrupt before any
// MakeSlice/MakeMapWithSize, and lengths beyond int range can never reach an
// int conversion.
func length(b []byte, minBytes int) (int, []byte, error) {
	n, b, err := uvarint(b)
	if err != nil {
		return 0, b, err
	}
	if n > uint64(len(b)/minBytes) {
		return 0, b, fmt.Errorf("%w: length %d exceeds %d remaining bytes", ErrCorrupt, n, len(b))
	}
	return int(n), b, nil
}
