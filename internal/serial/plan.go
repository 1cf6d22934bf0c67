package serial

// Codec plans. A plan is what the paper's ahead-of-time generator knows about
// a type, kept as data: the wire tag its values encode as, the exported-field
// index list, the element and key plans and the array length. It is built
// once per reflect.Type and cached; the walkers in encode.go and decode.go
// read it and do no type introspection beyond reading the value itself. A
// recursive type's plan is a cycle: the plan of a list node points, through
// its Next field's pointer plan, back at itself.
//
// Plans are configuration-independent: traversal bounds travel through the
// depth parameter, so one cached plan serves every Config and both
// directions.

import (
	"maps"
	"reflect"
	"sync"
	"sync/atomic"
)

// Plan-only tags, past the wire tags: an interface, whose dynamic value's
// plan decides at run time, and a kind the format cannot carry (chan, func,
// unsafe pointer). Both decode only the nil and truncation markers.
const (
	tagIface = tagTrunc + 1 + iota
	tagUnsupported
)

type plan struct {
	typ    reflect.Type
	tag    byte  // wire tag of the type's values, or tagIface/tagUnsupported
	elem   *plan // slice, array and pointer element; map value
	key    *plan // map key
	fields []field
	n      int // array length
	// scratch holds *typ values the typed Unmarshal decodes into, so the
	// caller's destination never reaches reflect.
	scratch sync.Pool
}

// field is one exported struct field: its index and its plan.
type field struct {
	idx int
	p   *plan
}

// plans caches finished plans per type behind a copy-on-write map: the
// steady-state lookup is one atomic load plus a plain map access (cheaper
// than a sync.Map on the per-Marshal hot path), while the rare insert copies
// the map under plansMu.
var (
	plans   atomic.Pointer[map[reflect.Type]*plan]
	plansMu sync.Mutex
)

func planFor(t reflect.Type) *plan {
	if m := plans.Load(); m != nil {
		if p, ok := (*m)[t]; ok {
			return p
		}
	}
	plansMu.Lock()
	defer plansMu.Unlock()
	next := map[reflect.Type]*plan{}
	if m := plans.Load(); m != nil {
		maps.Copy(next, *m)
	}
	p := addPlan(next, t)
	plans.Store(&next)
	return p
}

// addPlan returns t's plan from ps, first building into ps the plans of t
// and of every type it reaches that ps lacks. ps is published only once
// every plan in it is complete, so a reader never sees an open cycle.
func addPlan(ps map[reflect.Type]*plan, t reflect.Type) *plan {
	if p, ok := ps[t]; ok {
		return p // cached, or a recursive type closing its cycle
	}
	p := &plan{typ: t}
	p.scratch.New = func() any { return reflect.New(t).Interface() }
	ps[t] = p
	switch t.Kind() {
	case reflect.Bool:
		p.tag = tagBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.tag = tagInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		p.tag = tagUint
	case reflect.Float32, reflect.Float64:
		p.tag = tagFloat
	case reflect.String:
		p.tag = tagString
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			p.tag = tagBytes
		} else {
			p.tag, p.elem = tagSlice, addPlan(ps, t.Elem())
		}
	case reflect.Array:
		p.tag, p.elem, p.n = tagArray, addPlan(ps, t.Elem()), t.Len()
	case reflect.Map:
		p.tag, p.key, p.elem = tagMap, addPlan(ps, t.Key()), addPlan(ps, t.Elem())
	case reflect.Struct:
		p.tag = tagStruct
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				p.fields = append(p.fields, field{idx: i, p: addPlan(ps, t.Field(i).Type)})
			}
		}
	case reflect.Pointer:
		p.tag, p.elem = tagPtr, addPlan(ps, t.Elem())
	case reflect.Interface:
		p.tag = tagIface
	default:
		p.tag = tagUnsupported
	}
	return p
}
