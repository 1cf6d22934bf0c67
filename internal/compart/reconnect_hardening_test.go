package compart

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReconnectSendCloseRace is the regression test for the Send/Close race:
// the done check and the queue send used to be two separate selects, so a
// Send racing Close could enqueue a frame after Close's drain had already
// run, leaking it from the stats. Now Close excludes Send during the drain,
// so at quiescence every accepted message is counted Sent or Dropped.
func TestReconnectSendCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		rc := DialReconnect("", ReconnectConfig{
			QueueSize:  64,
			BackoffMin: time.Millisecond,
			BackoffMax: 2 * time.Millisecond,
			Dial:       func() (net.Conn, error) { return nil, errors.New("unreachable") },
		})
		var accepted, rejected atomic.Uint64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					switch err := rc.Send(Message{To: "sink"}); {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, ErrQueueFull):
						rejected.Add(1)
					case errors.Is(err, ErrClientClosed):
						return
					default:
						t.Errorf("unexpected send error: %v", err)
						return
					}
				}
			}()
		}
		close(start)
		if err := rc.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// Close has returned: Send must now fail deterministically.
		if err := rc.Send(Message{To: "sink"}); !errors.Is(err, ErrClientClosed) {
			t.Fatalf("send after close: %v, want ErrClientClosed", err)
		}
		st := rc.Stats()
		if st.Enqueued != accepted.Load() {
			t.Fatalf("round %d: Enqueued=%d, accepted=%d", round, st.Enqueued, accepted.Load())
		}
		// Dial never succeeds, so nothing was Sent; every accepted message
		// must be accounted Dropped by Close's drain, plus the queue-full
		// rejections. A leaked frame shows up as Dropped < accepted+rejected.
		if st.Sent != 0 {
			t.Fatalf("round %d: Sent=%d with a never-connecting dial", round, st.Sent)
		}
		if want := accepted.Load() + rejected.Load(); st.Dropped != want {
			t.Fatalf("round %d: Dropped=%d, want %d (accepted %d + rejected %d)",
				round, st.Dropped, want, accepted.Load(), rejected.Load())
		}
	}
}

// TestBackoffScheduleDeterministic pins the full redial schedule under an
// injected jitter source: delay = base * (1 + backoffJitter*Jitter()), base
// doubling from BackoffMin and capping at BackoffMax.
func TestBackoffScheduleDeterministic(t *testing.T) {
	cfg := ReconnectConfig{
		BackoffMin: 50 * time.Millisecond,
		BackoffMax: 2 * time.Second,
		Jitter:     func() float64 { return 0.5 },
	}
	cfg.fill("unused")
	c := &ReconnectClient{cfg: cfg}
	want := []time.Duration{
		55 * time.Millisecond,   // 50ms * 1.1
		110 * time.Millisecond,  // 100ms * 1.1
		220 * time.Millisecond,  // 200ms * 1.1
		440 * time.Millisecond,  // 400ms * 1.1
		880 * time.Millisecond,  // 800ms * 1.1
		1760 * time.Millisecond, // 1.6s * 1.1
		2200 * time.Millisecond, // capped at 2s, * 1.1
		2200 * time.Millisecond, // stays capped
	}
	cur := cfg.BackoffMin
	for i, w := range want {
		delay, next := c.nextBackoff(cur)
		if delay != w {
			t.Fatalf("step %d: delay %v, want %v", i, delay, w)
		}
		cur = next
	}
}

// TestBackoffJitterDefault: with no injected source, fill installs a clock-
// seeded RNG returning uniform values in [0, 1).
func TestBackoffJitterDefault(t *testing.T) {
	var cfg ReconnectConfig
	cfg.fill("unused")
	if cfg.Jitter == nil {
		t.Fatal("fill must install a default jitter source")
	}
	for i := 0; i < 100; i++ {
		if v := cfg.Jitter(); v < 0 || v >= 1 {
			t.Fatalf("jitter out of [0,1): %v", v)
		}
	}
}
