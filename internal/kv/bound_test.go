package kv

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestBoundAccessUnderConcurrentDelivery hammers one table the way a busy
// junction's is: remote deliveries from two senders, a scheduling goroutine
// that touches the table only through cells and key sets bound beforehand, a
// par arm rolling its transaction back, and a migration install. Run it with
// -race -count=10.
//
// The install excludes the scheduling goroutine and its par arm, as it does
// under Junction.schedMu; everything else runs at once. Each goroutine owns
// the keys it asserts on, so every assertion holds in every interleaving:
//
//   - a bound local write drops the pending updates to its key and wakes that
//     key's subscribers and nobody else's;
//   - an update a bound wait admits is applied at delivery, not queued;
//   - a bound swap taken back re-merges what it dropped by arrival order;
//   - a cell bound before a rollback or an install reads the restored value
//     after it, and is still the cell the name resolves to.
func TestBoundAccessUnderConcurrentDelivery(t *testing.T) {
	tb := NewTable()
	for _, p := range []string{"Mine", "Flag", "Quiet", "Other", "Roll"} {
		tb.DeclareProp(p, false)
	}
	for _, d := range []string{"d", "e", "rd"} {
		tb.DeclareData(d)
	}
	const rounds = 200
	// Junction.schedMu's part: a scheduling (its arms side by side) reads it,
	// an install writes it.
	var sched sync.RWMutex
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}

	// pendingTo lists the queued updates to one proposition, in queue order.
	pendingTo := func(key string) (from []string) {
		for _, u := range tb.SnapshotAll().Pending {
			if u.Kind == UpdateProp && u.Key == key {
				from = append(from, u.From)
			}
		}
		return from
	}
	took := func(s *Subscription) bool {
		select {
		case <-s.Ch():
			return true
		default:
			return false
		}
	}

	// Two remote senders, single updates and groups.
	for sender := 0; sender < 2; sender++ {
		from := fmt.Sprintf("s%d::j", sender)
		run(func() {
			for i := 0; i < rounds; i++ {
				tb.Enqueue(Update{Kind: UpdateProp, Key: "Other", Bool: i%2 == 0, From: from})
				tb.EnqueueBatch([]Update{
					{Kind: UpdateData, Key: "d", Data: []byte{byte(i)}, From: from},
					{Kind: UpdateProp, Key: "Other", Bool: i%2 == 1, From: from},
					{Kind: UpdateData, Key: "e", Data: []byte{byte(i)}, From: from},
					{Kind: UpdateProp, Key: "NotDeclared", Bool: true, From: from},
				})
			}
		})
	}

	// The scheduling goroutine: bound access only.
	mine, flag := tb.PropCell("Mine"), tb.PropCell("Flag")
	mineKeys, flagKeys, quietKeys := tb.Bind([]string{"Mine"}, nil), tb.Bind([]string{"Flag"}, []string{"d"}), tb.Bind([]string{"Quiet"}, nil)
	// One subscription per key set, re-armed every round, as a compiled wait
	// re-arms its own.
	onMine, onQuiet, onFlag := NewSubscription(mineKeys), NewSubscription(quietKeys), NewSubscription(flagKeys)
	run(func() {
		for i := 0; i < rounds; i++ {
			sched.RLock()
			v := i%2 == 0
			tb.ApplyPending()

			// Local priority and the wake, through the cell.
			tb.Enqueue(Update{Kind: UpdateProp, Key: "Mine", Bool: !v, From: "a"})
			tb.Enqueue(Update{Kind: UpdateProp, Key: "Mine", Bool: v, From: "b"})
			tb.Arm(onMine)
			tb.Arm(onQuiet)
			mine.Set(v)
			if left := pendingTo("Mine"); len(left) != 0 {
				t.Errorf("round %d: a bound write left %v queued for its key", i, left)
			}
			if mine.Get() != v {
				t.Errorf("round %d: Mine = %v after Set(%v)", i, mine.Get(), v)
			}
			if !took(onMine) {
				t.Errorf("round %d: a bound write did not wake its key's subscriber", i)
			}
			if took(onQuiet) {
				t.Errorf("round %d: a bound write woke another key's subscriber", i)
			}

			// Swap and undo, with a later arrival that must stay behind. Quiet's
			// update keeps early and mid two queue entries.
			tb.Enqueue(Update{Kind: UpdateProp, Key: "Mine", Bool: true, From: "early"})
			tb.Enqueue(Update{Kind: UpdateProp, Key: "Quiet", Bool: false, From: "between"})
			tb.Enqueue(Update{Kind: UpdateProp, Key: "Mine", Bool: false, From: "mid"})
			undo := mine.Swap(!v)
			tb.Enqueue(Update{Kind: UpdateProp, Key: "Mine", Bool: true, From: "late"})
			tb.UndoProp(undo)
			if got := fmt.Sprint(pendingTo("Mine")); got != "[early mid late]" {
				t.Errorf("round %d: pending for Mine after undo = %s, want [early mid late]", i, got)
			}
			if mine.Get() != v {
				t.Errorf("round %d: undo left Mine = %v, want %v", i, mine.Get(), v)
			}
			tb.Unsubscribe(onMine)
			tb.Unsubscribe(onQuiet)

			// A bound wait admits its keys at delivery.
			flag.Set(false)
			h := tb.BeginWait(flagKeys)
			tb.Arm(onFlag)
			tb.Enqueue(Update{Kind: UpdateProp, Key: "Flag", Bool: true, From: "peer"})
			if !flag.Get() {
				t.Errorf("round %d: an update the wait admits was not applied at delivery", i)
			}
			if !took(onFlag) {
				t.Errorf("round %d: the admitted update did not wake the waiter", i)
			}
			tb.Unsubscribe(onFlag)
			tb.EndWait(h)
			tb.Enqueue(Update{Kind: UpdateProp, Key: "Flag", Bool: false, From: "peer"})
			if !flag.Get() {
				t.Errorf("round %d: an update was admitted after EndWait", i)
			}
			sched.RUnlock()
		}
	})

	// A par arm's transaction: snapshot, write, take back only its own keys.
	roll, rd := tb.PropCell("Roll"), tb.DataCell("rd")
	run(func() {
		for i := 0; i < rounds; i++ {
			sched.RLock()
			snap := snapshotAll(tb)
			roll.Set(true)
			rd.Set([]byte("dirty"))
			tb.RestoreKeys(snap, []string{"Roll"}, []string{"rd"})
			if roll.Get() {
				t.Errorf("round %d: the cell bound before RestoreKeys reads the rolled-back write", i)
			}
			if _, err := rd.Ref(); !errors.Is(err, ErrUndef) {
				t.Errorf("round %d: rd after rollback: %v, want undef", i, err)
			}
			sched.RUnlock()
		}
	})

	// A migration install over bound cells (the destination junction is
	// compiled before its state arrives).
	run(func() {
		for i := 0; i < rounds; i++ {
			sched.Lock()
			st := tb.SnapshotAll()
			want := !st.Props["Mine"]
			st.Props["Mine"] = want
			tb.RestoreAll(st)
			if mine.Get() != want {
				t.Errorf("round %d: the cell bound before RestoreAll reads %v, installed %v", i, mine.Get(), want)
			}
			if tb.PropCell("Mine") != mine {
				t.Errorf("round %d: RestoreAll replaced the cell", i)
			}
			sched.Unlock()
		}
	})

	wg.Wait()
	tb.ApplyPending()
	if tb.PropCell("NotDeclared") != nil {
		t.Error("a remote update declared a name")
	}
	if tb.PropCell("Roll") != roll || tb.DataCell("rd") != rd || tb.PropCell("Flag") != flag {
		t.Error("a cell was replaced")
	}
}
