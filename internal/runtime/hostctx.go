package runtime

import (
	"fmt"

	"csaw/internal/kv"
)

// hostCtx implements dsl.HostCtx for one host block, enforcing the V⃗
// write-set. It holds nothing per invocation: the compiled path builds one
// when it lowers the block and hands the same context to every run.
type hostCtx struct {
	j      *Junction
	writes []string
	// bound[i] holds the table cells writes[i] names, resolved when the
	// context is built, so a write inside V⃗ — the only kind allowed —
	// resolves no name.
	bound []boundWrite
}

// boundWrite is one V⃗ entry's cells; nil where the name is not a declared
// proposition / data variable (an idx, a subset, or a misspelling).
type boundWrite struct {
	prop *kv.PropCell
	data *kv.DataCell
}

func (j *Junction) newHostCtx(writes []string) *hostCtx {
	h := &hostCtx{j: j, writes: writes, bound: make([]boundWrite, len(writes))}
	for i, w := range writes {
		h.bound[i] = boundWrite{
			prop: j.table.PropCell(j.pj.ResolveName(w)),
			data: j.table.DataCell(w),
		}
	}
	return h
}

// index returns name's position in V⃗, -1 when the block may not write it.
func (h *hostCtx) index(name string) int {
	for i, w := range h.writes {
		if w == name {
			return i
		}
	}
	return -1
}

// Data implements dsl.HostCtx.
func (h *hostCtx) Data(name string) ([]byte, error) { return h.j.table.Data(name) }

// Prop implements dsl.HostCtx.
func (h *hostCtx) Prop(name string) (bool, error) {
	if i := h.index(name); i >= 0 && h.bound[i].prop != nil {
		return h.bound[i].prop.Get(), nil
	}
	return h.j.table.Prop(h.j.pj.ResolveName(name))
}

// Save implements dsl.HostCtx.
func (h *hostCtx) Save(name string, payload []byte) error {
	i := h.index(name)
	if i < 0 {
		return fmt.Errorf("%w: data %q (V⃗=%v)", ErrWriteDenied, name, h.writes)
	}
	if c := h.bound[i].data; c != nil {
		c.Set(payload)
	} else if err := h.j.table.SetData(name, payload); err != nil {
		return err
	}
	if h.j.traced {
		h.j.noteLocalWrite(name, "*")
	}
	return nil
}

// SetProp implements dsl.HostCtx.
func (h *hostCtx) SetProp(name string, v bool) error {
	i := h.index(name)
	if i < 0 {
		return fmt.Errorf("%w: prop %q (V⃗=%v)", ErrWriteDenied, name, h.writes)
	}
	if c := h.bound[i].prop; c != nil {
		c.Set(v)
	} else if err := h.j.table.SetProp(h.j.pj.ResolveName(name), v); err != nil {
		return err
	}
	if h.j.traced {
		h.j.noteLocalWrite(h.j.pj.ResolveName(name), wrote(v))
	}
	return nil
}

// SetIdx implements dsl.HostCtx.
func (h *hostCtx) SetIdx(name, elem string) error {
	if h.index(name) < 0 {
		return fmt.Errorf("%w: idx %q (V⃗=%v)", ErrWriteDenied, name, h.writes)
	}
	return h.j.SetIdx(name, elem)
}

// SetSubset implements dsl.HostCtx.
func (h *hostCtx) SetSubset(name string, elems []string) error {
	if h.index(name) < 0 {
		return fmt.Errorf("%w: subset %q (V⃗=%v)", ErrWriteDenied, name, h.writes)
	}
	return h.j.SetSubset(name, elems)
}

// App implements dsl.HostCtx.
func (h *hostCtx) App() any { return h.j.inst.app }

// Instance implements dsl.HostCtx.
func (h *hostCtx) Instance() string { return h.j.inst.Name }

// Junction implements dsl.HostCtx.
func (h *hostCtx) Junction() string { return h.j.FQName }
