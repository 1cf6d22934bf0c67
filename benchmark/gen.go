package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	wl "csaw/internal/workload"
)

// kvParams describes one key-value traffic mix.
type kvParams struct {
	keys      int
	valueSize int
	readFrac  float64
	// hotFrac/hotProb give the 90/10 skew: with probability hotProb a request
	// goes to the first hotFrac of the key space. Zero means uniform.
	hotFrac, hotProb float64
	shards           int  // back-ends the djb2 prediction is made for
	cached           bool // the model also predicts cache hits
}

// keyTable holds the key strings and their djb2 routing, built once so the
// generator formats nothing per request.
type keyTable struct {
	names []string
	hash  []uint32
	shard []uint8
}

func newKeyTable(keys, shards int) *keyTable {
	kt := &keyTable{
		names: make([]string, keys),
		hash:  make([]uint32, keys),
		shard: make([]uint8, keys),
	}
	for i := range kt.names {
		kt.names[i] = fmt.Sprintf("key:%06d", i)
		kt.hash[i] = wl.Djb2(kt.names[i])
		kt.shard[i] = uint8(int(kt.hash[i]) % shards)
	}
	return kt
}

// kvGen is a seeded request stream plus the model it is checked against. One
// generator drives one store, so the model always matches that store's
// history. It allocates nothing after construction.
type kvGen struct {
	p   kvParams
	kt  *keyTable
	rng *rand.Rand
	hot int

	ver    []uint32 // model: version of the last SET per key (0 = never set)
	cached []bool   // model: key currently memoized by the cache front
	val    []byte   // the one SET buffer; every store copies it before returning

	shardOps     [8]uint64 // predicted operations per back-end
	hits, misses uint64    // predicted cache outcomes
}

func newKVGen(p kvParams, kt *keyTable, seed int64) *kvGen {
	g := &kvGen{
		p:      p,
		kt:     kt,
		rng:    rand.New(rand.NewSource(seed)),
		hot:    int(float64(p.keys) * p.hotFrac),
		ver:    make([]uint32, p.keys),
		cached: make([]bool, p.keys),
		val:    make([]byte, p.valueSize),
	}
	if g.hot < 1 {
		g.hot = 1
	}
	for i := range g.val {
		g.val[i] = byte('a' + i%26)
	}
	return g
}

// next draws the next operation.
func (g *kvGen) next() (idx int, get bool) {
	if g.p.hotProb > 0 && g.rng.Float64() < g.p.hotProb {
		idx = g.rng.Intn(g.hot)
	} else {
		idx = g.rng.Intn(g.p.keys)
	}
	return idx, g.rng.Float64() < g.p.readFrac
}

// stamp advances the model for a SET of key idx and returns the value to
// send: its first eight bytes are the key's djb2 hash and the per-key version
// a later GET must return. The buffer is reused: stores must have copied it by the time the SET
// returns (every store here serializes it).
func (g *kvGen) stamp(idx int) []byte {
	g.ver[idx]++
	binary.BigEndian.PutUint32(g.val[0:], g.kt.hash[idx])
	binary.BigEndian.PutUint32(g.val[4:], g.ver[idx])
	return g.val
}

// predict records where the operation must be served and, for cache
// workloads, whether the front serves it; it returns the predicted hit.
func (g *kvGen) predict(idx int, get bool) (hit bool) {
	if g.p.cached {
		if get {
			if g.cached[idx] {
				g.hits++
				return true
			}
			g.misses++
			g.cached[idx] = true
		} else {
			g.cached[idx] = false
		}
	}
	g.shardOps[g.kt.shard[idx]]++
	return false
}

// checkGet reports whether a GET answer is the one the model expects: a
// stale, cross-routed or missing value fails.
func (g *kvGen) checkGet(idx int, val []byte, found bool) bool {
	if g.ver[idx] == 0 {
		return !found
	}
	return found && len(val) == g.p.valueSize &&
		binary.BigEndian.Uint32(val[0:]) == g.kt.hash[idx] &&
		binary.BigEndian.Uint32(val[4:]) == g.ver[idx]
}
