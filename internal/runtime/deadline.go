package runtime

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// deadline is the context an otherwise[t] try runs under, and the root
// context of a junction driver's schedulings. Unlike context.WithTimeout it is
// armed, not allocated: a compiled otherwise[t] step keeps one and re-arms it
// on every firing, so a firing that does not expire allocates nothing. Its
// time limit is kept by its junction's clock (below), not by a timer of its
// own.
//
// Reuse needs no lock of its own: a compiled step runs one firing at a time
// (DESIGN.md, "A compiled step owns its scratch"), so a step's deadline has
// one user at a time, and every goroutine a try starts has ended when the try
// returns.
//
// A deadline is dropped, never re-armed, once it has ended — its clock
// expired it, or a parent's end reached it. disarm reports that (the clock
// had already taken it off its list, or an error is already set), and the
// owner builds a fresh one for its next firing. That is the only allocation,
// and it happens only after an expiry. A late expiry or parent callback can
// then only close the old object's channel: there is no staleness to check.
//
// Parents propagate without allocating when they are deadlines too: the child
// links itself into the parent's child list under the parent's mu, and the
// parent's cancel ends every linked child while still holding its mu. Locks
// are always taken ancestor first. disarm unlinks under the parent's mu, so
// either the parent's cancel reached the child before the unlink — its error
// is set when disarm looks, and it is dropped — or the cancel can no longer
// reach it. A parent whose Done is nil (context.Background) costs nothing;
// any other parent (an Invoke caller's own context) is watched with
// context.AfterFunc, which allocates, as context.WithTimeout did.
type deadline struct {
	parent context.Context
	// clk keeps the time limit; nil for a deadline with no limit of its own
	// (a driver's root). at is the limit as an offset from clk.base.
	clk  *clock
	at   time.Duration
	done chan struct{}
	// err is nil while the deadline is live. It is set once, under mu, and
	// read without a lock: runStepsAt asks before every step.
	err atomic.Pointer[error]

	// mu guards kids, the head of the list of children linked to this
	// deadline, and makes setting err, closing done and ending the kids one
	// step.
	mu   sync.Mutex
	kids *deadline

	// The owner's link to its parent, written by the owner: up and the list
	// pointers under up.mu, stop (a foreign parent's context.AfterFunc) with
	// no lock.
	up         *deadline
	prev, next *deadline
	stop       func() bool

	// The deadline's place in its clock's list, under clk.mu. armed is set
	// while it is linked there.
	earlier, later *deadline
	armed          bool
}

func newDeadline(c *clock) *deadline {
	return &deadline{parent: context.Background(), clk: c, done: make(chan struct{})}
}

// arm starts a firing under parent: the deadline ends after t, or when
// parent ends if that is sooner.
func (d *deadline) arm(parent context.Context, t time.Duration) {
	d.parent = parent
	switch p := parent.(type) {
	case *deadline:
		p.mu.Lock()
		if e := p.err.Load(); e != nil {
			p.mu.Unlock()
			d.cancel(*e)
			return
		}
		d.up, d.next = p, p.kids
		if p.kids != nil {
			p.kids.prev = d
		}
		p.kids = d
		p.mu.Unlock()
	default:
		if parent.Done() != nil {
			if err := parent.Err(); err != nil {
				d.cancel(err)
				return
			}
			d.stop = context.AfterFunc(parent, func() { d.cancel(parent.Err()) })
		}
	}
	d.clk.add(d, t)
}

// disarm ends a firing and reports whether the deadline may be armed again:
// false when it has ended, or may yet be ended by an expiry or a callback
// already running.
func (d *deadline) disarm() bool {
	reuse := d.clk.remove(d)
	if p := d.up; p != nil {
		p.mu.Lock()
		if d.prev != nil {
			d.prev.next = d.next
		} else {
			p.kids = d.next
		}
		if d.next != nil {
			d.next.prev = d.prev
		}
		p.mu.Unlock()
		d.up, d.prev, d.next = nil, nil, nil
	} else if d.stop != nil {
		if !d.stop() {
			reuse = false
		}
		d.stop = nil
	}
	d.parent = context.Background()
	return reuse && d.err.Load() == nil
}

// cancel ends the deadline with err and every child linked to it with the
// same error. Ending an ended deadline does nothing.
func (d *deadline) cancel(err error) {
	d.mu.Lock()
	if d.err.Load() == nil {
		d.err.Store(&err)
		close(d.done)
		for k := d.kids; k != nil; k = k.next {
			k.cancel(err)
		}
	}
	d.mu.Unlock()
}

// Deadline implements context.Context: the earlier of the deadline's own
// time limit and its parent's.
func (d *deadline) Deadline() (time.Time, bool) {
	pt, ok := d.parent.Deadline()
	if d.clk == nil {
		return pt, ok
	}
	if at := d.clk.base.Add(d.at); !ok || at.Before(pt) {
		return at, true
	}
	return pt, ok
}

// Done implements context.Context.
func (d *deadline) Done() <-chan struct{} { return d.done }

// Err implements context.Context: context.DeadlineExceeded when the
// deadline's own time limit passed, the parent's error when the parent ended.
func (d *deadline) Err() error {
	if e := d.err.Load(); e != nil {
		return *e
	}
	return nil
}

// Value implements context.Context by asking the parent.
func (d *deadline) Value(key any) any { return d.parent.Value(key) }

// clock keeps the time limits of every otherwise[t] deadline of one junction
// incarnation with one runtime timer. Almost every firing disarms its
// deadline long before t has passed, so the armed deadlines sit in one list,
// sorted by expiry, and the timer is set for the head lazily:
//
//   - arm reads the monotonic clock once and links the deadline in, scanning
//     from the tail; equal limits keep arming order. It sets the timer only
//     when none is pending or the new limit is earlier than the pending one.
//   - disarm unlinks the deadline and leaves the timer as it is, even when it
//     was set for that deadline.
//   - When the timer fires, it takes every deadline that is due off the list,
//     sets the timer for the new head, if any, and only then, outside mu,
//     ends what it took with context.DeadlineExceeded. A deadline that disarm
//     finds off the list was taken by an expiry, so its owner drops it.
//
// mu is taken with no other lock of this package held, and none is taken
// under it: an expiry ends its deadlines, whose cancel takes their mu ancestor
// first, only after it has released mu.
//
// A retired incarnation (migrated away, stopped, crashed or closed) stops its
// timer once no deadline is armed, so that no pending timer keeps it alive
// for up to t. A scheduling still in flight when it retires keeps its limit.
type clock struct {
	base time.Time // the origin of every deadline's at; read without mu

	mu         sync.Mutex
	head, tail *deadline // armed deadlines, earliest first
	timer      *time.Timer
	fireAt     time.Duration // when the timer fires, while pending
	pending    bool
	retired    bool
}

func newClock() *clock { return &clock{base: time.Now()} }

// add arms d to expire t from now.
func (c *clock) add(d *deadline, t time.Duration) {
	now := time.Since(c.base)
	if d.at = now + t; d.at < now {
		d.at = math.MaxInt64 // so long a t that the sum overflows: never due
	}
	c.mu.Lock()
	p := c.tail
	for p != nil && p.at > d.at {
		p = p.earlier
	}
	d.earlier, d.armed = p, true
	if p == nil {
		d.later, c.head = c.head, d
	} else {
		d.later, p.later = p.later, d
	}
	if d.later == nil {
		c.tail = d
	} else {
		d.later.earlier = d
	}
	if !c.pending || d.at < c.fireAt {
		c.fireAt, c.pending = d.at, true
		if c.timer == nil {
			c.timer = time.AfterFunc(t, c.fire)
		} else {
			c.timer.Reset(t)
		}
	}
	c.mu.Unlock()
}

// remove disarms d and reports whether it was still armed: false when an
// expiry took it.
func (c *clock) remove(d *deadline) bool {
	c.mu.Lock()
	armed := d.armed
	if armed {
		c.unlinkLocked(d)
		if c.retired && c.head == nil {
			c.stopLocked()
		}
	}
	c.mu.Unlock()
	return armed
}

func (c *clock) unlinkLocked(d *deadline) {
	if d.earlier != nil {
		d.earlier.later = d.later
	} else {
		c.head = d.later
	}
	if d.later != nil {
		d.later.earlier = d.earlier
	} else {
		c.tail = d.earlier
	}
	d.earlier, d.later, d.armed = nil, nil, false
}

// fire is the timer's callback: it expires every deadline that is due and
// sets the timer for the next one.
func (c *clock) fire() {
	c.mu.Lock()
	now := time.Since(c.base)
	// The due deadlines are a prefix of the list: cut it off whole. Its own
	// links stay, so it can be walked after mu is released; an owner finds
	// each of them disarmed and never touches its links again.
	first := c.head
	var last *deadline
	for d := first; d != nil && d.at <= now; d = d.later {
		d.armed = false
		last = d
	}
	if last != nil {
		c.head = last.later
		if c.head == nil {
			c.tail = nil
		} else {
			c.head.earlier = nil
		}
		last.later = nil
	}
	c.pending = false
	if h := c.head; h != nil {
		c.fireAt, c.pending = h.at, true
		c.timer.Reset(h.at - now)
	}
	c.mu.Unlock()
	if last == nil {
		return
	}
	for d := first; d != nil; {
		next := d.later
		d.cancel(context.DeadlineExceeded)
		d = next
	}
}

// retire marks the incarnation retired and stops the timer if no deadline is
// armed; otherwise the disarm or expiry that empties the list leaves it
// stopped.
func (c *clock) retire() {
	c.mu.Lock()
	c.retired = true
	if c.head == nil {
		c.stopLocked()
	}
	c.mu.Unlock()
}

func (c *clock) stopLocked() {
	if c.pending {
		c.timer.Stop()
		c.pending = false
	}
}
