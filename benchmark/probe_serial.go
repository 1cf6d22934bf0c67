package main

import "csaw/internal/serial"

func probeSerial(_ *workload, m *metrics) error {
	for _, size := range []struct {
		suffix string
		bytes  int
	}{{"64b", 64}, {"16k", 16 << 10}} {
		op := wireOp{Key: "key:000042", Value: make([]byte, size.bytes), Found: true}
		enc, err := serial.Marshal(op)
		if err != nil {
			return err
		}
		kib := float64(len(enc)) / 1024
		var buf []byte
		encNs, encAllocs := probe(func() { buf, _ = serial.AppendMarshal(buf[:0], op) })
		var out wireOp
		decNs, decAllocs := probe(func() { _ = serial.Unmarshal(enc, &out) })
		m.add("serial.encode_ns_per_kib_"+size.suffix, encNs/kib, "ns")
		m.add("serial.decode_ns_per_kib_"+size.suffix, decNs/kib, "ns")
		m.add("serial.allocs_per_roundtrip_"+size.suffix, encAllocs+decAllocs, "count")
	}
	return nil
}
