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
// definitions; this package recovers that performance model with compiled
// codec plans: the first encounter of a reflect.Type compiles a closure tree
// that bakes in the kind switch, the exported-field index list, element
// codecs and the byte-slice fast path, and caches it per type (see
// plan_encode.go / plan_decode.go). Steady-state Marshal/Unmarshal therefore
// performs no per-value type introspection, and pooled buffers plus the
// AppendMarshal entry point let hot callers amortize allocation across
// calls. The wire format is unchanged from the original reflect-walk codec,
// whose output is frozen in testdata/reference.golden as the golden
// reference.
package serial

import (
	"encoding/binary"
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

// Snapshot is the shared configuration for application snapshot images
// (mini-Redis data sets, mini-Suricata flow tables). Snapshots are flat
// record collections, but the deeper bound leaves headroom for nested
// attributes without touching every snapshot call site.
var Snapshot = Config{MaxDepth: 64}

// Marshal encodes v with the default configuration.
func Marshal(v any) ([]byte, error) { return Default.Marshal(v) }

// AppendMarshal appends the encoding of v to dst with the default
// configuration and returns the extended buffer.
func AppendMarshal(dst []byte, v any) ([]byte, error) { return Default.AppendMarshal(dst, v) }

// Unmarshal decodes data into the pointer dst with the default configuration.
func Unmarshal(data []byte, dst any) error { return Default.Unmarshal(data, dst) }

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

// encoder carries the traversal configuration and the retained scratch
// capacity between pooled rounds. The output buffer itself is threaded
// through the plans (see plan_encode.go), so steady-state Marshal performs a
// single exact-size allocation for the returned slice.
type encoder struct {
	cfg Config
	buf []byte
}

// truncate encodes a value at exhausted depth as the one-byte truncation
// marker.
func (e *encoder) truncate(buf []byte) ([]byte, error) {
	return append(buf, tagTrunc), nil
}

// maxPooledBuf caps the buffer capacity retained by pooled encoders so one
// oversized value does not pin memory for the process lifetime.
const maxPooledBuf = 1 << 20

var encPool = sync.Pool{New: func() any { return new(encoder) }}

func putEncoder(e *encoder) {
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	}
	encPool.Put(e)
}

// encodeRoot dispatches the top-level value to its compiled plan.
func (e *encoder) encodeRoot(buf []byte, v any, depth int) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return append(buf, tagNil), nil
	}
	return encPlanFor(rv.Type())(e, buf, rv, depth)
}

// Marshal encodes a value using its compiled codec plan.
func (c Config) Marshal(v any) ([]byte, error) {
	e := encPool.Get().(*encoder)
	e.cfg = c
	buf, err := e.encodeRoot(e.buf[:0], v, c.maxDepth())
	e.buf = buf // retain the grown capacity for the next round
	if err != nil {
		putEncoder(e)
		return nil, err
	}
	if len(buf) > c.maxBytes() {
		putEncoder(e)
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(buf))
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	putEncoder(e)
	return out, nil
}

// AppendMarshal appends the encoding of v to dst and returns the extended
// buffer, letting hot paths (per-request wire records, compart frames,
// snapshot images) reuse one buffer across calls. On error dst is returned
// unchanged. MaxBytes bounds only the appended encoding, not len(dst).
func (c Config) AppendMarshal(dst []byte, v any) ([]byte, error) {
	e := encPool.Get().(*encoder)
	e.cfg = c
	out, err := e.encodeRoot(dst, v, c.maxDepth())
	putEncoder(e)
	if err != nil {
		return dst, err
	}
	if len(out)-len(dst) > c.maxBytes() {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(out)-len(dst))
	}
	return out, nil
}

// decoder consumes the wire encoding.
type decoder struct{ buf []byte }

var decPool = sync.Pool{New: func() any { return new(decoder) }}

func (d *decoder) take(n int) ([]byte, error) {
	if len(d.buf) < n {
		return nil, fmt.Errorf("%w: need %d bytes, have %d", ErrCorrupt, n, len(d.buf))
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b, nil
}

func (d *decoder) tag() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	d.buf = d.buf[n:]
	return u, nil
}

func (d *decoder) varint() (int64, error) {
	i, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	d.buf = d.buf[n:]
	return i, nil
}

// length reads a container/byte length and validates it against the
// remaining input, charging at least minBytes of wire data per element.
// This makes allocation proportional to the input: a short corrupt frame
// declaring a gigabyte-scale length fails with ErrCorrupt before any
// MakeSlice/MakeMapWithSize, and lengths beyond int range can never reach an
// int conversion.
func (d *decoder) length(minBytes int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)/minBytes) {
		return 0, fmt.Errorf("%w: length %d exceeds %d remaining bytes", ErrCorrupt, n, len(d.buf))
	}
	return int(n), nil
}

// Unmarshal decodes into dst, which must be a non-nil pointer. The
// destination type drives the traversal, mirroring how the generated
// serializers in the paper are driven by the analyzed type definitions.
// Decoding enforces the same MaxDepth bound as encoding, so hostile inputs
// cannot drive unbounded recursion; a valid encoding always decodes under
// the configuration that produced it.
func (c Config) Unmarshal(data []byte, dst any) error {
	rv := reflect.ValueOf(dst)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("%w: destination must be a non-nil pointer", ErrType)
	}
	plan := decPlanFor(rv.Type().Elem())
	d := decPool.Get().(*decoder)
	d.buf = data
	err := plan(d, rv.Elem(), c.maxDepth())
	rest := len(d.buf)
	d.buf = nil
	decPool.Put(d)
	if err != nil {
		return err
	}
	if rest != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, rest)
	}
	return nil
}
