package bench

// Shared wiring between the DSL glue layers: the serialized request/response
// record that front-end and back-end junctions exchange through
// save/write/restore. Each feature's Table-2 accounting includes this file,
// mirroring how the paper charges the shared communication plumbing to every
// directly-implemented feature.

import "csaw/internal/serial"

// wireOp is the serialized request/response format between front and backs.
type wireOp struct {
	Get   bool
	Key   string
	Value []byte
	Found bool
}

// appendWireOp serializes a record into dst's capacity (serial.AppendMarshal),
// for adapters that reuse one request buffer across rounds. The runtime
// retains payloads by reference (kv tables, message payloads), so a buffer
// may only be reused after the previous round's response was delivered —
// which happens-after the consumer finished reading the request — and must
// be abandoned when a round fails (a straggling back-end may still hold it).
func appendWireOp(dst []byte, op wireOp) ([]byte, error) { return serial.AppendMarshal(dst, op) }

// decodeWireOp parses a request/response record.
func decodeWireOp(b []byte) (wireOp, error) {
	var op wireOp
	err := serial.Unmarshal(b, &op)
	return op, err
}
