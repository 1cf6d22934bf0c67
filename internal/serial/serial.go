// Package serial is the data-structure serialization framework supporting
// C-Saw's save/restore/write primitives — the Go analogue of the paper's
// C-strider-based tool (§9).
//
// Like the paper's serializer it performs a type-aware traversal of values
// guided by their (reflected) type structure, requires no per-type
// hand-written code, and bounds recursion: recursive datatypes such as
// linked lists are serialized only up to a configurable maximum depth, which
// protects the serialization buffer from unbounded or cyclic structures.
// Deeper content is truncated to nil, mirroring the paper's "recursive
// datatypes up to a maximum, though configurable, recursion depth".
//
// The paper's serializer is *generated ahead of time* from analyzed type
// definitions; this package recovers that performance model with codec
// plans: the first encounter of a reflect.Type builds a plan, plain data
// holding the wire tag, the exported-field index list, element and key plans
// and the byte-slice fast path, and caches it per type (see plan.go). One
// recursive encoder and one recursive decoder walk a value against its plan
// (encode.go, decode.go), so steady-state Marshal/Unmarshal performs no
// per-value type introspection. Because the encoder never stores the
// reflect.Value it is handed, the argument of Marshal and AppendMarshal stays
// on its caller's stack. Unmarshal is generic, so the compiler knows its
// destination's type: the walker decodes into a pooled scratch value of that
// type, which reaches *dst by a typed assignment, and a local destination
// stays on its caller's stack too. Config.Unmarshal takes an `any`
// destination and writes it in place. The wire format is unchanged from
// the original reflect-walk codec, whose output is frozen in
// testdata/reference.golden as the golden reference.
package serial

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// Errors reported by the codec.
var (
	// ErrTooLarge is returned when the encoded form exceeds MaxBytes.
	ErrTooLarge = errors.New("serial: encoded value exceeds max bytes")
	// ErrCorrupt is returned on malformed input.
	ErrCorrupt = errors.New("serial: corrupt encoding")
	// ErrType is returned for unsupported kinds (chan, func, unsafe).
	ErrType = errors.New("serial: unsupported type")
)

// Config controls traversal bounds.
type Config struct {
	// MaxDepth bounds pointer/container recursion; a subtree past it is
	// encoded as truncated and decodes to its zero value. Zero means the
	// default of 32.
	MaxDepth int
	// MaxBytes bounds the encoded size. Zero means the default of 8 MiB.
	MaxBytes int
}

func (c Config) maxDepth() int {
	if c.MaxDepth <= 0 {
		return 32
	}
	return c.MaxDepth
}

func (c Config) maxBytes() int {
	if c.MaxBytes <= 0 {
		return 8 << 20
	}
	return c.MaxBytes
}

// Default is the zero-config codec used by Marshal/Unmarshal.
var Default = Config{}

// Marshal encodes v with the default configuration.
func Marshal(v any) ([]byte, error) { return Default.Marshal(v) }

// AppendMarshal appends the encoding of v to dst with the default
// configuration and returns the extended buffer.
func AppendMarshal(dst []byte, v any) ([]byte, error) { return Default.AppendMarshal(dst, v) }

// Unmarshal decodes data into *dst with the default configuration. The
// compiler knows dst's type, so dst never reaches reflect and a local
// destination stays on its caller's stack: the walker decodes into a pooled
// scratch value of the type, which starts as a copy of *dst and is assigned
// back to *dst whole, also on error, so *dst ends exactly as a field-wise
// decode (Config.Unmarshal) leaves it. Because *dst is written whole, never
// decode into a value another goroutine reads or writes meanwhile.
func Unmarshal[T any](data []byte, dst *T) error {
	if dst == nil {
		return errNilDst
	}
	p := planFor(reflect.TypeFor[T]())
	s := p.scratch.Get().(*T)
	*s = *dst
	rest, err := decode(data, p, reflect.ValueOf(s).Elem(), Default.maxDepth())
	*dst = *s
	*s = *new(T)
	p.scratch.Put(s)
	return trailing(rest, err)
}

// Tags of the wire format.
const (
	tagNil = iota
	tagBool
	tagInt
	tagUint
	tagFloat
	tagString
	tagBytes
	tagSlice
	tagArray
	tagMap
	tagStruct
	tagPtr
	tagTrunc // depth-truncated subtree (decodes to the zero value)
)

// maxPooledBuf caps the scratch capacity kept between rounds so one
// oversized value does not pin memory for the process lifetime.
const maxPooledBuf = 1 << 20

// scratch holds the byte buffers Marshal encodes into before its exact-size
// copy, and that a map's keys are encoded into before they are sorted.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

func putScratch(b *[]byte, buf []byte) {
	if cap(buf) > maxPooledBuf {
		buf = nil
	}
	*b = buf[:0]
	scratch.Put(b)
}

// Marshal encodes a value using its codec plan.
func (c Config) Marshal(v any) ([]byte, error) {
	b := scratch.Get().(*[]byte)
	buf, err := c.AppendMarshal(*b, v)
	var out []byte
	if err == nil {
		out = make([]byte, len(buf))
		copy(out, buf)
	}
	putScratch(b, buf)
	return out, err
}

// AppendMarshal appends the encoding of v to dst and returns the extended
// buffer, letting hot paths (per-request wire records, compart frames,
// snapshot images) reuse one buffer across calls. On error dst is returned
// unchanged. MaxBytes bounds only the appended encoding, not len(dst).
func (c Config) AppendMarshal(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return append(dst, tagNil), nil
	}
	out, err := encode(dst, planFor(rv.Type()), rv, c.maxDepth())
	if err != nil {
		return dst, err
	}
	if len(out)-len(dst) > c.maxBytes() {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(out)-len(dst))
	}
	return out, nil
}

// Unmarshal decodes into dst, which must be a non-nil pointer. The
// destination type drives the traversal, mirroring how the generated
// serializers in the paper are driven by the analyzed type definitions.
// Decoding enforces the same MaxDepth bound as encoding, so hostile inputs
// cannot drive unbounded recursion; a valid encoding always decodes under
// the configuration that produced it. The walker writes *dst in place, field
// by field, so dst escapes to the heap; the package-level Unmarshal keeps a
// typed destination on its caller's stack.
func (c Config) Unmarshal(data []byte, dst any) error {
	rv := reflect.ValueOf(dst)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return errNilDst
	}
	return trailing(decode(data, planFor(rv.Type().Elem()), rv.Elem(), c.maxDepth()))
}

var errNilDst = fmt.Errorf("%w: destination must be a non-nil pointer", ErrType)

// trailing is a decode's result: its error, or input left over after the
// value.
func trailing(rest []byte, err error) error {
	if err == nil && len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return err
}
