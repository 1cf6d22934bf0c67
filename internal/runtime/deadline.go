package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// deadline is the context an otherwise[t] try runs under, and the root
// context of a junction driver's schedulings. Unlike context.WithTimeout it is
// armed, not allocated: a compiled otherwise[t] step keeps one and re-arms it
// on every firing, so a firing that does not expire allocates nothing.
//
// Reuse needs no lock of its own: a compiled step runs one firing at a time
// (DESIGN.md, "A compiled step owns its scratch"), so a step's deadline has
// one user at a time, and every goroutine a try starts has ended when the try
// returns.
//
// A deadline is dropped, never re-armed, once it has ended — its timer fired,
// or a parent's end reached it. disarm reports that (a Stop that finds the
// timer already fired, or an error already set), and the owner builds a fresh
// one for its next firing. That is the only allocation, and it happens only
// after an expiry. A late timer or parent callback can then only close the
// old object's channel: there is no staleness to check.
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
	at     time.Time   // zero: no time limit of its own (a driver's root)
	timer  *time.Timer // created on the first armed firing, then Reset
	done   chan struct{}
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
}

func newDeadline() *deadline {
	return &deadline{parent: context.Background(), done: make(chan struct{})}
}

// arm starts a firing under parent: the deadline ends after t, or when
// parent ends if that is sooner.
func (d *deadline) arm(parent context.Context, t time.Duration) {
	d.parent, d.at = parent, time.Now().Add(t)
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
	if d.timer == nil {
		d.timer = time.AfterFunc(t, d.expire)
	} else {
		d.timer.Reset(t)
	}
}

// disarm ends a firing and reports whether the deadline may be armed again:
// false when it has ended, or may yet be ended by a callback already running.
func (d *deadline) disarm() bool {
	reuse := d.timer == nil || d.timer.Stop()
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

func (d *deadline) expire() { d.cancel(context.DeadlineExceeded) }

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
	if d.at.IsZero() || (ok && pt.Before(d.at)) {
		return pt, ok
	}
	return d.at, true
}

// Done implements context.Context.
func (d *deadline) Done() <-chan struct{} { return d.done }

// Err implements context.Context: context.DeadlineExceeded when the
// deadline's own timer fired, the parent's error when the parent ended.
func (d *deadline) Err() error {
	if e := d.err.Load(); e != nil {
		return *e
	}
	return nil
}

// Value implements context.Context by asking the parent.
func (d *deadline) Value(key any) any { return d.parent.Value(key) }
