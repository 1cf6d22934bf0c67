package serial

// The encoder: one recursive walk of a value against its plan. It reads the
// reflect.Value it is handed and never stores it, in a closure, a pooled
// object or a MapIter, so escape analysis keeps the argument of Marshal and
// AppendMarshal on its caller's stack.
//
// The output buffer is threaded through the walk as a parameter/return pair
// rather than stored in a struct: keeping the slice header in registers
// avoids a GC write barrier on every append, which is measurable at
// wire-record rates.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
)

func encode(buf []byte, p *plan, v reflect.Value, depth int) ([]byte, error) {
	if depth <= 0 {
		return append(buf, tagTrunc), nil
	}
	var err error
	switch p.tag {
	case tagBool:
		if v.Bool() {
			return append(buf, tagBool, 1), nil
		}
		return append(buf, tagBool, 0), nil
	case tagInt:
		return binary.AppendVarint(append(buf, tagInt), v.Int()), nil
	case tagUint:
		return binary.AppendUvarint(append(buf, tagUint), v.Uint()), nil
	case tagFloat:
		return binary.BigEndian.AppendUint64(append(buf, tagFloat), math.Float64bits(v.Float())), nil
	case tagString:
		s := v.String()
		buf = binary.AppendUvarint(append(buf, tagString), uint64(len(s)))
		return append(buf, s...), nil
	case tagBytes:
		if v.IsNil() {
			return append(buf, tagNil), nil
		}
		b := v.Bytes()
		buf = binary.AppendUvarint(append(buf, tagBytes), uint64(len(b)))
		return append(buf, b...), nil
	case tagSlice, tagArray:
		if p.tag == tagSlice && v.IsNil() {
			return append(buf, tagNil), nil
		}
		n := v.Len()
		buf = binary.AppendUvarint(append(buf, p.tag), uint64(n))
		for i := 0; i < n && err == nil; i++ {
			buf, err = encode(buf, p.elem, v.Index(i), depth-1)
		}
		return buf, err
	case tagMap:
		return encodeMap(buf, p, v, depth)
	case tagStruct:
		buf = binary.AppendUvarint(append(buf, tagStruct), uint64(len(p.fields)))
		for _, f := range p.fields {
			if buf, err = encode(buf, f.p, v.Field(f.idx), depth-1); err != nil {
				return buf, err
			}
		}
		return buf, nil
	case tagPtr:
		if v.IsNil() {
			return append(buf, tagNil), nil
		}
		return encode(append(buf, tagPtr), p.elem, v.Elem(), depth-1)
	case tagIface:
		// The dynamic value is traversed at the same depth, its plan looked
		// up at run time.
		if v.IsNil() {
			return append(buf, tagNil), nil
		}
		iv := v.Elem()
		return encode(buf, planFor(iv.Type()), iv, depth)
	}
	// An unsupported kind is reported only when reached: below the depth
	// bound it truncates like any other subtree.
	return buf, fmt.Errorf("%w: %s", ErrType, p.typ.Kind())
}

// encodeMap writes a map's entries in a deterministic order: every key is
// encoded into one pooled scratch buffer, index ranges are sorted by encoded
// bytes, then key bytes are interleaved with value encodings. Keys come from
// MapKeys and values from MapIndex, which read the map without keeping it; a
// MapIter would hold the map's Value and make the caller's argument escape.
// A NaN key, which no lookup finds, encodes its value as the zero value.
func encodeMap(buf []byte, p *plan, v reflect.Value, depth int) ([]byte, error) {
	if v.IsNil() {
		return append(buf, tagNil), nil
	}
	n := v.Len()
	buf = binary.AppendUvarint(append(buf, tagMap), uint64(n))
	if n == 0 {
		return buf, nil
	}
	keys := v.MapKeys()
	sb := scratch.Get().(*[]byte)
	kbuf := *sb
	offs := make([]int, 1, n+1)
	var err error
	for _, k := range keys {
		if kbuf, err = encode(kbuf, p.key, k, depth-1); err != nil {
			putScratch(sb, kbuf)
			return buf, err
		}
		offs = append(offs, len(kbuf))
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		return bytes.Compare(kbuf[offs[a]:offs[a+1]], kbuf[offs[b]:offs[b+1]])
	})
	for _, i := range idx {
		buf = append(buf, kbuf[offs[i]:offs[i+1]]...)
		val := v.MapIndex(keys[i])
		if !val.IsValid() {
			val = reflect.Zero(p.elem.typ)
		}
		if buf, err = encode(buf, p.elem, val, depth-1); err != nil {
			break
		}
	}
	putScratch(sb, kbuf)
	return buf, err
}
