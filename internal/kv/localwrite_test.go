package kv

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// finishes runs f in a goroutine and reports whether it returns within d.
// When it does not, f is left running: the caller releases what blocks it.
func finishes(f func(), d time.Duration) (done <-chan struct{}, ok bool) {
	ch := make(chan struct{})
	go func() {
		f()
		close(ch)
	}()
	select {
	case <-ch:
		return ch, true
	case <-time.After(d):
		return ch, false
	}
}

// TestLocalWriteTakesNoLockWhenUnwatched pins which bound proposition writes
// skip the table lock. The test holds the lock itself: a write to a table
// with nothing queued and no subscription must still finish, and one with
// either must wait for the lock, since it may have updates to discard or
// subscribers to wake. An empty-queue ApplyPending must finish too.
func TestLocalWriteTakesNoLockWhenUnwatched(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("P", false)
	tb.DeclareProp("Q", false)
	p := tb.PropCell("P")

	// free asserts f finishes while the lock is held.
	free := func(what string, f func()) {
		t.Helper()
		tb.mu.Lock()
		_, ok := finishes(f, 5*time.Second)
		tb.mu.Unlock()
		if !ok {
			t.Fatalf("%s waited for the table lock", what)
		}
	}
	// blocks asserts f waits for the lock and finishes once it is released.
	blocks := func(what string, f func()) {
		t.Helper()
		tb.mu.Lock()
		done, ok := finishes(f, 20*time.Millisecond)
		tb.mu.Unlock()
		if ok {
			t.Fatalf("%s did not wait for the table lock", what)
		}
		<-done
	}

	free("an unwatched write with an empty queue", func() { p.Set(true) })
	if !p.Get() {
		t.Fatal("the lock-free write was lost")
	}
	free("ApplyPending on an empty queue", func() {
		if n := tb.ApplyPending(); n != 0 {
			t.Errorf("ApplyPending on an empty queue absorbed %d", n)
		}
	})

	// A queued update, to any key, sends the write through the lock; so does
	// the drain that empties the queue.
	tb.Enqueue(Update{Kind: UpdateProp, Key: "Q", Bool: true, From: "r"})
	blocks("a write with an update queued", func() { p.Set(false) })
	blocks("ApplyPending with an update queued", func() { tb.ApplyPending() })
	free("a write after the drain", func() { p.Set(true) })

	// Every path that empties the queue leaves the write lock-free again.
	tb.Enqueue(Update{Kind: UpdateProp, Key: "P", Bool: false, From: "r"})
	blocks("a write with its own key queued", func() { p.Set(true) })
	if got := tb.PendingLen(); got != 0 {
		t.Fatalf("the locked write left %d entries queued", got)
	}
	free("a write after local priority emptied the queue", func() { p.Set(true) })
	tb.Enqueue(Update{Kind: UpdateProp, Key: "Q", Bool: true, From: "r"})
	tb.Keep([]string{"Q"}, nil)
	free("a write after keep emptied the queue", func() { p.Set(true) })
	tb.Enqueue(Update{Kind: UpdateProp, Key: "Q", Bool: true, From: "r"})
	h := tb.BeginWait(tb.Bind([]string{"Q"}, nil))
	tb.EndWait(h)
	free("a write after a wait drained the queue", func() { p.Set(true) })
	st := tb.SnapshotAll()
	st.Pending = []Update{{Kind: UpdateProp, Key: "Q", Bool: false, From: "r"}}
	tb.RestoreAll(st)
	blocks("a write after an install queued an update", func() { p.Set(true) })
	tb.ApplyPending()
	free("a write after the installed queue drained", func() { p.Set(true) })

	// Any subscription on the table, keyed or to every key, sends the write
	// through the lock, even one that names another key.
	onQ := tb.Subscribe([]string{"Q"}, nil)
	blocks("a write under a subscription to another key", func() { p.Set(false) })
	tb.Unsubscribe(onQ)
	free("a write after its subscription left", func() { p.Set(true) })
	all := tb.Subscribe(tb.PropNames(), tb.DataNames())
	blocks("a write under a subscription to every key", func() { p.Set(false) })
	tb.Unsubscribe(all)
	free("a write after every subscription left", func() { p.Set(true) })
}

// TestLocalWriteRacesDeliveryAndSubscription races lock-free bound writes
// against subscriptions and deliveries. Run it with -race.
//
//   - A subscription registered while a write runs either reads the written
//     value on its first look or finds a wake token: no wake is missed.
//   - An update whose delivery finished before a write began is discarded by
//     it (local priority); only deliveries that raced the write may be left.
func TestLocalWriteRacesDeliveryAndSubscription(t *testing.T) {
	tb := NewTable()
	tb.DeclareProp("W", false)
	tb.DeclareProp("K", false)
	tb.DeclareProp("J", false)
	w := tb.PropCell("W")
	wKeys := tb.Bind([]string{"W"}, nil)
	allKeys := tb.Bind(tb.PropNames(), tb.DataNames())

	// Both sides of a round wait at a spin barrier, so their starts land
	// within a few nanoseconds of each other and the rounds' jitter sweeps
	// the write's short window between its first look and its store.
	const rounds = 5000
	for i := 0; i < rounds; i++ {
		w.Set(false)
		var saw bool
		var s *Subscription
		var arrived atomic.Int32
		barrier := func() {
			arrived.Add(1)
			for n := 0; arrived.Load() < 2; n++ {
				if n > 1000 {
					runtime.Gosched()
				}
			}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			barrier()
			w.Set(true)
		}()
		go func() {
			defer wg.Done()
			barrier()
			if i%2 == 0 {
				s = armed(tb, wKeys)
			} else {
				s = armed(tb, allKeys)
			}
			saw = w.Get()
		}()
		wg.Wait()
		woken := false
		select {
		case <-s.Ch():
			woken = true
		default:
		}
		tb.Unsubscribe(s)
		if !saw && !woken {
			t.Fatalf("round %d: a subscription racing the write neither read it nor was woken", i)
		}
	}

	// Local priority under concurrent delivery and subscription churn. The
	// delivered counter is bumped only after an Enqueue returns, so updates
	// counted before a write begins were queued before it.
	k := tb.PropCell("K")
	kKeys := tb.Bind([]string{"K"}, nil)
	var delivered atomic.Int64
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 0 {
				tb.EnqueueBatch([]Update{
					{Kind: UpdateProp, Key: "J", Bool: true, From: "r"},
					{Kind: UpdateProp, Key: "K", Bool: true, From: "r"},
				})
			} else {
				tb.Enqueue(Update{Kind: UpdateProp, Key: "K", Bool: true, From: "r"})
			}
			delivered.Add(1)
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tb.Unsubscribe(armed(tb, kKeys))
		}
	}()
	queuedFor := func(key string) (n int64) {
		for _, u := range tb.SnapshotAll().Pending {
			if u.Kind == UpdateProp && u.Key == key {
				n += int64(u.N)
			}
		}
		return n
	}
	for i := 0; i < 2000; i++ {
		if i%4 == 0 {
			tb.ApplyPending()
		}
		before := delivered.Load()
		k.Set(false)
		left := queuedFor("K")
		if raced := delivered.Load() - before + 1; left > raced {
			t.Fatalf("round %d: %d updates to K queued after a local write; at most %d raced it", i, left, raced)
		}
	}
	close(stop)
	bg.Wait()
}
