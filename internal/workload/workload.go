// Package workload generates the reference workloads of the paper's
// evaluation (§10.1): redis-benchmark-style key/value request streams
// (uniform and 90/10-skewed reads, the skew modelling the memcached/Twitter
// cache studies the paper cites), object-size distributions for size-based
// sharding, 5-tuple network flow traces standing in for bigFlows.pcap, and
// the file-size sweeps of the cURL experiments.
package workload

import (
	"fmt"
	"math/rand"
)

// Djb2 is the djb2 string hash the paper uses for key-based sharding (§10.1,
// citing Ozan Yigit's hash collection).
func Djb2(s string) uint32 {
	var h uint32 = 5381
	for i := 0; i < len(s); i++ {
		h = h*33 + uint32(s[i])
	}
	return h
}

// Op is a single KV operation.
type Op struct {
	Get   bool
	Key   string
	Value []byte
}

// KVConfig parameterizes a KV request stream.
type KVConfig struct {
	// Keys is the size of the keyspace.
	Keys int
	// ReadFraction is the fraction of GETs (rest are SETs).
	ReadFraction float64
	// HotFraction and HotProbability implement the paper's skew: with
	// probability HotProbability a request targets the hot HotFraction of
	// the keyspace (90% of requests to 10% of keys in §10.1).
	HotFraction    float64
	HotProbability float64
	// ValueSize is the SET payload size in bytes.
	ValueSize int
	// Seed makes the stream deterministic.
	Seed int64
}

// KVStream produces a deterministic stream of KV operations.
type KVStream struct {
	cfg     KVConfig
	rng     *rand.Rand
	hotKeys int
	value   []byte
}

// NewKVStream builds a stream from the configuration.
func NewKVStream(cfg KVConfig) *KVStream {
	if cfg.Keys <= 0 {
		cfg.Keys = 10000
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 64
	}
	s := &KVStream{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		hotKeys: int(float64(cfg.Keys) * cfg.HotFraction),
	}
	if s.hotKeys <= 0 {
		s.hotKeys = 1
	}
	s.value = make([]byte, cfg.ValueSize)
	for i := range s.value {
		s.value[i] = byte('a' + i%26)
	}
	return s
}

// Next produces the next operation.
func (s *KVStream) Next() Op {
	var idx int
	if s.cfg.HotProbability > 0 && s.rng.Float64() < s.cfg.HotProbability {
		idx = s.rng.Intn(s.hotKeys)
	} else {
		idx = s.rng.Intn(s.cfg.Keys)
	}
	key := fmt.Sprintf("key:%06d", idx)
	if s.rng.Float64() < s.cfg.ReadFraction {
		return Op{Get: true, Key: key}
	}
	return Op{Key: key, Value: s.value}
}

// SizeClass describes one object-size class for size-aware sharding (the
// paper quantizes sizes into 0–4 KB, 4–64 KB and >64 KB, §5.2).
type SizeClass struct {
	Name     string
	MinBytes int
	MaxBytes int
}

// PaperSizeClasses are the three classes from §5.2 plus the paper's implicit
// fourth shard for hash-based overflow, giving the 4-way split used in the
// Fig. 26c experiment.
func PaperSizeClasses() []SizeClass {
	return []SizeClass{
		{Name: "0-4KB", MinBytes: 1, MaxBytes: 4 << 10},
		{Name: "4-64KB", MinBytes: 4<<10 + 1, MaxBytes: 64 << 10},
		{Name: ">64KB", MinBytes: 64<<10 + 1, MaxBytes: 256 << 10},
	}
}

// SizedValue generates a value within the class using the stream's RNG
// source.
func SizedValue(rng *rand.Rand, c SizeClass) []byte {
	n := c.MinBytes
	if c.MaxBytes > c.MinBytes {
		n += rng.Intn(c.MaxBytes - c.MinBytes)
	}
	b := make([]byte, n)
	for i := 0; i < len(b); i += 97 {
		b[i] = byte(i)
	}
	return b
}

// Flow is one network 5-tuple (paper §2, flow-level resourcing).
type Flow struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
	Packets          int
	Bytes            int
}

// FiveTupleKey renders the canonical flow key used for hashing.
func (f Flow) FiveTupleKey() string {
	return fmt.Sprintf("%d:%d-%d:%d/%d", f.SrcIP, f.SrcPort, f.DstIP, f.DstPort, f.Proto)
}

// Packet is one packet of a flow trace.
type Packet struct {
	Flow    Flow
	Len     int
	Payload []byte
}

// FlowTraceConfig parameterizes the synthetic substitute for bigFlows.pcap:
// many flows from different applications with heavy-tailed sizes.
type FlowTraceConfig struct {
	Flows       int
	MeanPackets int
	Seed        int64
	// SuspiciousFraction of flows carry a payload token that the detection
	// rules match.
	SuspiciousFraction float64
}

// FlowTrace is a deterministic packet generator.
type FlowTrace struct {
	flows  []Flow
	sus    []bool
	rng    *rand.Rand
	remain []int
	alive  []int
}

// NewFlowTrace creates the trace. Packet counts per flow follow a geometric
// (heavy-tailed) distribution around MeanPackets.
func NewFlowTrace(cfg FlowTraceConfig) *FlowTrace {
	if cfg.Flows <= 0 {
		cfg.Flows = 100
	}
	if cfg.MeanPackets <= 0 {
		cfg.MeanPackets = 50
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &FlowTrace{rng: rng}
	for i := 0; i < cfg.Flows; i++ {
		f := Flow{
			SrcIP:   rng.Uint32(),
			DstIP:   rng.Uint32(),
			SrcPort: uint16(1024 + rng.Intn(60000)),
			DstPort: []uint16{80, 443, 53, 22, 8080}[rng.Intn(5)],
			Proto:   []uint8{6, 17}[rng.Intn(2)],
		}
		n := 1 + int(rng.ExpFloat64()*float64(cfg.MeanPackets))
		t.flows = append(t.flows, f)
		t.sus = append(t.sus, rng.Float64() < cfg.SuspiciousFraction)
		t.remain = append(t.remain, n)
		t.alive = append(t.alive, i)
	}
	return t
}

// Next emits the next packet, interleaving live flows; ok is false when the
// trace is exhausted.
func (t *FlowTrace) Next() (Packet, bool) {
	for len(t.alive) > 0 {
		i := t.rng.Intn(len(t.alive))
		fi := t.alive[i]
		if t.remain[fi] <= 0 {
			t.alive[i] = t.alive[len(t.alive)-1]
			t.alive = t.alive[:len(t.alive)-1]
			continue
		}
		t.remain[fi]--
		p := Packet{
			Flow: t.flows[fi],
			Len:  64 + t.rng.Intn(1400),
		}
		if t.sus[fi] {
			p.Payload = []byte("GET /etc/passwd EVIL")
		} else {
			p.Payload = []byte("GET /index.html HTTP/1.1")
		}
		return p, true
	}
	return Packet{}, false
}

// TotalPackets returns the number of packets the trace will emit in total.
func (t *FlowTrace) TotalPackets() int {
	n := 0
	for _, r := range t.remain {
		n += r
	}
	return n
}

// SmallFileSizes are the Fig. 25a/25b sweep (1 KB – 10 MB).
func SmallFileSizes() []int {
	return []int{1 << 10, 10 << 10, 100 << 10, 1 << 20, 10 << 20}
}

// LargeFileSizes are the Fig. 26a sweep (20 MB – 1.2 GB, scaled down 10× to
// keep the harness laptop-friendly while preserving the relative shape).
func LargeFileSizes() []int {
	return []int{2 << 20, 5 << 20, 10 << 20, 40 << 20, 70 << 20, 120 << 20}
}
