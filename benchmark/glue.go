package main

import (
	"context"
	"sync"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/miniredis"
	"csaw/internal/patterns"
	"csaw/internal/runtime"
	"csaw/internal/serial"
)

// The host-hook glue between the pattern architectures and mini-Redis. It is
// the benchmark's own (internal/bench has an equivalent that stays editable),
// and every hook opens a span when a tracer is installed.

// wireOp is the serialized request/response record between front and backs.
type wireOp struct {
	Get   bool
	Key   string
	Value []byte
	Found bool
}

// hookTimeout is the otherwise[t] deadline of every request round. It is far
// above any latency the workloads produce: no operation may fail.
const hookTimeout = 5 * time.Second

// front is the state the front-end hooks share with the client: the pending
// request, the delivered response, and the reusable request buffer.
type front struct {
	tr  *tracer
	sys *runtime.System

	mu     sync.Mutex
	pend   wireOp
	resp   wireOp
	reqBuf []byte // reusable only after a successful round
}

func (f *front) capture(dsl.HostCtx) ([]byte, error) {
	h := f.tr.hook(spCapture)
	defer f.tr.end(h)
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.tr.child(spEncode, h)
	b, err := serial.AppendMarshal(f.reqBuf[:0], f.pend)
	f.tr.endSized(e, len(b))
	if err != nil {
		return nil, err
	}
	f.reqBuf = b
	return b, nil
}

func (f *front) deliver(_ dsl.HostCtx, b []byte) error {
	h := f.tr.hook(spDeliver)
	defer f.tr.end(h)
	var op wireOp
	d := f.tr.child(spDecode, h)
	err := serial.Unmarshal(b, &op)
	f.tr.endSized(d, len(b))
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.resp = op
	f.mu.Unlock()
	return nil
}

// complain runs when a round timed out: a straggling back-end may still be
// reading the request bytes, so the buffer is abandoned.
func (f *front) complain(dsl.HostCtx) error {
	f.mu.Lock()
	f.reqBuf = nil
	f.mu.Unlock()
	return nil
}

// invoke routes the pending operation through one junction.
func (f *front) invoke(ctx context.Context, inst, jn string, op wireOp) (wireOp, error) {
	f.mu.Lock()
	f.pend = op
	f.mu.Unlock()
	s := f.tr.beginInvoke(0)
	err := f.sys.Invoke(ctx, inst, jn)
	f.tr.end(s)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		f.reqBuf = nil
		return wireOp{}, err
	}
	return f.resp, nil
}

// handle is the back-end computation shared by sharding and caching: decode
// the request, run it on mini-Redis, encode the response.
func handle(tr *tracer, srv *miniredis.Server, req []byte) ([]byte, error) {
	h := tr.hook(spHandle)
	defer tr.end(h)
	var op wireOp
	d := tr.child(spDecode, h)
	err := serial.Unmarshal(req, &op)
	tr.endSized(d, len(req))
	if err != nil {
		return nil, err
	}
	resp := wireOp{Get: op.Get, Key: op.Key, Found: true}
	a := tr.child(spApp, h)
	if op.Get {
		resp.Value, resp.Found, err = srv.Get(op.Key)
	} else {
		err = srv.Set(op.Key, op.Value)
	}
	tr.end(a)
	if err != nil {
		return nil, err
	}
	e := tr.child(spEncode, h)
	b, err := serial.Marshal(resp)
	tr.endSized(e, len(b))
	return b, err
}

// shardStore is patterns.Sharding over n mini-Redis back-ends.
type shardStore struct {
	front
	servers []*miniredis.Server
}

func newShardStore(n int, tr *tracer) (*shardStore, *dsl.Program) {
	s := &shardStore{front: front{tr: tr}}
	byInst := map[string]*miniredis.Server{}
	for i := 0; i < n; i++ {
		srv := miniredis.NewServer()
		s.servers = append(s.servers, srv)
		byInst[patterns.BackInstance(i)] = srv
	}
	choose := patterns.KeyHashChooser(n, func(dsl.HostCtx) (string, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.pend.Key, nil
	})
	prog := patterns.Sharding(patterns.ShardingConfig{
		N:       n,
		Timeout: hookTimeout,
		Choose: func(ctx dsl.HostCtx) (int, error) {
			h := tr.hook(spChoose)
			defer tr.end(h)
			return choose(ctx)
		},
		CaptureRequest: s.capture,
		HandleRequest: func(ctx dsl.HostCtx, req []byte) ([]byte, error) {
			return handle(tr, byInst[ctx.Instance()], req)
		},
		DeliverResponse: s.deliver,
		Complain:        s.complain,
	})
	return s, prog
}

func (s *shardStore) Get(key string) ([]byte, bool, error) {
	r, err := s.invoke(context.Background(), patterns.FrontInstance, patterns.ShardJunction, wireOp{Get: true, Key: key})
	return r.Value, r.Found, err
}

func (s *shardStore) Set(key string, value []byte) error {
	_, err := s.invoke(context.Background(), patterns.FrontInstance, patterns.ShardJunction, wireOp{Key: key, Value: value})
	return err
}

func (s *shardStore) backendOps() []uint64 {
	out := make([]uint64, len(s.servers))
	for i, srv := range s.servers {
		out[i] = srv.Ops()
	}
	return out
}

func (s *shardStore) closeApp() {
	for _, srv := range s.servers {
		srv.Close()
	}
}

// cacheStore is patterns.Caching in front of one mini-Redis. The cache itself
// is a host-side map without eviction (the working set fits).
type cacheStore struct {
	front
	server       *miniredis.Server
	cache        map[string]wireOp
	hits, misses uint64
}

func newCacheStore(tr *tracer) (*cacheStore, *dsl.Program) {
	c := &cacheStore{front: front{tr: tr}, server: miniredis.NewServer(), cache: map[string]wireOp{}}
	prog := patterns.Caching(patterns.CachingConfig{
		Timeout: hookTimeout,
		CheckCacheable: func(dsl.HostCtx) (bool, error) {
			h := tr.hook(spCheck)
			defer tr.end(h)
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.pend.Get, nil // only reads are memoizable
		},
		LookupCache: func(dsl.HostCtx) (bool, error) {
			h := tr.hook(spLookup)
			defer tr.end(h)
			c.mu.Lock()
			defer c.mu.Unlock()
			if r, ok := c.cache[c.pend.Key]; ok {
				c.resp = r
				c.hits++
				return true, nil
			}
			c.misses++
			return false, nil
		},
		CaptureRequest: c.capture,
		DeliverResponse: func(ctx dsl.HostCtx, b []byte) error {
			if err := c.deliver(ctx, b); err != nil {
				return err
			}
			c.mu.Lock()
			if !c.resp.Get { // a write invalidates the memoized read
				delete(c.cache, c.resp.Key)
			}
			c.mu.Unlock()
			return nil
		},
		UpdateCache: func(dsl.HostCtx) error {
			h := tr.hook(spUpdate)
			defer tr.end(h)
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.pend.Get {
				c.cache[c.pend.Key] = c.resp
			}
			return nil
		},
		ComputeF: func(_ dsl.HostCtx, req []byte) ([]byte, error) {
			return handle(tr, c.server, req)
		},
		Complain: c.complain,
	})
	return c, prog
}

func (c *cacheStore) Get(key string) ([]byte, bool, error) {
	r, err := c.invoke(context.Background(), patterns.CacheInstance, patterns.CacheJunction, wireOp{Get: true, Key: key})
	return r.Value, r.Found, err
}

func (c *cacheStore) Set(key string, value []byte) error {
	_, err := c.invoke(context.Background(), patterns.CacheInstance, patterns.CacheJunction, wireOp{Key: key, Value: value})
	return err
}

func (c *cacheStore) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
