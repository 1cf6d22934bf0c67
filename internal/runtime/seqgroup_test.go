package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/obsv"
)

// A straight-line run of remote updates is sent as groups (updateStep), and
// must be indistinguishable, in everything but timing, from the same
// statements sent one at a time, each waiting out its own ack: the sender's
// table and error on every failure path, what each receiver holds, and the
// sequences it saw them arrive under. The per-statement outcomes are frozen
// under testdata/seq (generated once from the reference interpreter, see
// group_test.go), and every run's trace must conform to the §8 denotation.

// seqOutcome is parOutcome plus what a sequence can additionally tell apart:
// the sender's own table (local halves applied, taken back or rolled back)
// and the order of arrivals per pair.
type seqOutcome struct {
	parOutcome
	sender string
	seqs   string
}

func (o seqOutcome) String() string {
	return fmt.Sprintf("%s sender=%s seqs=%s", o.parOutcome, o.sender, o.seqs)
}

func observeSeq(t *testing.T, s *System, ring *obsv.RingSink, invokeErr error) seqOutcome {
	t.Helper()
	out := seqOutcome{parOutcome: observe(t, s, ring, invokeErr)}
	var seqs []string
	for _, e := range ring.Events() {
		if e.Kind == obsv.EvRemoteQueued {
			seqs = append(seqs, fmt.Sprintf("%s<-%s #%d %s", e.Junction, e.Peer, e.N, e.Key))
		}
	}
	out.seqs = strings.Join(seqs, ", ")
	tb := s.junctionQuiet("f", "j").Table()
	var b strings.Builder
	for _, p := range tb.PropNames() {
		v, _ := tb.Prop(p)
		fmt.Fprintf(&b, "%s=%v ", p, v)
	}
	for _, d := range tb.DataNames() {
		fmt.Fprintf(&b, "%s:%v ", d, tb.Defined(d))
	}
	fmt.Fprintf(&b, "pending=%d", tb.PendingLen())
	out.sender = b.String()
	return out
}

// dropKeyUplink forwards frames into dst except updates of proposition key:
// a group message is cut at the first one and only its head forwarded, as a
// smaller group — member p and everything behind it in the group never
// arrive, the members before it do.
func dropKeyUplink(dst *compart.Network, key string) Uplink {
	return func(m compart.Message) error {
		if m.Kind != compart.KindGroup {
			return dst.Send(m)
		}
		lo, members, ok := decodeGroup(m.Payload)
		if !ok {
			return fmt.Errorf("malformed group from %s", m.From)
		}
		head := 0
		for head < len(members) && !(members[head].kind == compart.KindProp && string(members[head].key) == key) {
			head++
		}
		if head == 0 {
			return nil
		}
		m.Payload = appendGroup(nil, lo, updatesOf(members[:head]))
		return dst.Send(m)
	}
}

func TestGroupedSeqMatchesPerStatementSeq(t *testing.T) {
	saveD := dsl.Save{Data: "d", From: func(dsl.HostCtx) ([]byte, error) { return []byte("payload"), nil }}
	// The sender declares U, W and Flag itself, so asserting them remotely has
	// a local half the outcome shows.
	local := dsl.Decls(
		dsl.InitProp{Name: "U", Init: false}, dsl.InitProp{Name: "W", Init: false}, dsl.InitProp{Name: "Flag", Init: false},
		dsl.InitData{Name: "d"}, dsl.InitData{Name: "never"},
		dsl.DeclSet{Name: "Sinks", Elems: []string{"g1::j", "g2::j"}},
		dsl.DeclIdx{Name: "a", Of: "Sinks"}, dsl.DeclIdx{Name: "unset", Of: "Sinks"},
	)
	up := func(n int, prop string) dsl.Expr { return dsl.Assert{Target: g(n), Prop: dsl.PR(prop)} }
	crashG2 := func(_ *testing.T, s *System) { s.CrashInstance("g2") }
	scenarios := []struct {
		name string
		prog *dsl.Program
		// opts builds the options of one run (a deployment binds to one
		// system); before runs once the instances are up.
		opts    func() Options
		before  func(t *testing.T, s *System)
		wantErr error
		// batches is how many delivery groups each sink must have absorbed: the
		// grouping is the point, and an outcome that matches because nothing was
		// grouped proves nothing.
		batches [2]uint64
	}{{
		name:    "same destination",
		prog:    groupProgram(local, saveD, dsl.Write{Data: "d", To: g(1)}, up(1, "U"), dsl.Retract{Target: g(1), Prop: dsl.PR("V")}),
		batches: [2]uint64{1, 0},
	}, {
		// g1 g1 | g2 g2 | g1: a change of destination closes the group.
		name:    "destination change mid-run",
		prog:    groupProgram(local, up(1, "U"), up(1, "W"), up(2, "U"), dsl.Retract{Target: g(2), Prop: dsl.PR("V")}, up(1, "V")),
		batches: [2]uint64{1, 1},
	}, {
		name: "idx target re-pointed by a host block before the run",
		prog: groupProgram(local, saveD,
			dsl.IdxAssign{Idx: "a", Elem: "g1::j"},
			dsl.Host{Label: "repoint", Writes: []string{"a"}, Fn: func(c dsl.HostCtx) error { return c.SetIdx("a", "g2::j") }},
			dsl.Write{Data: "d", To: dsl.ByIdx("a")}, dsl.Assert{Target: dsl.ByIdx("a"), Prop: dsl.PR("U")}),
		batches: [2]uint64{0, 1},
	}, {
		name:    "resolution failure at member 1",
		prog:    groupProgram(local, dsl.Assert{Target: dsl.ByIdx("unset"), Prop: dsl.PR("U")}, up(1, "W")),
		wantErr: ErrIdxUndef,
	}, {
		// U is sent and awaited before the write's error surfaces; W never starts.
		name:    "resolution failure at member 2",
		prog:    groupProgram(local, up(1, "U"), dsl.Write{Data: "never", To: g(1)}, up(1, "W")),
		wantErr: errors.New("undef"),
	}, {
		// Member 3 applies its local half, then fails to resolve: U and V are
		// sent as a group first, and W stays set at the sender as it would.
		name: "resolution failure at member 3",
		prog: groupProgram(local, up(1, "U"), dsl.Retract{Target: g(1), Prop: dsl.PR("V")},
			dsl.Assert{Target: dsl.ByIdx("unset"), Prop: dsl.PR("W")}, up(1, "Flag")),
		wantErr: ErrIdxUndef,
		batches: [2]uint64{1, 0},
	}, {
		// The g2 group fails at its first member: that statement's local half
		// (U) stands, the one behind it (W) is taken back.
		name:    "peer down before the run",
		prog:    groupProgram(local, up(1, "V"), up(2, "U"), up(2, "W")),
		before:  crashG2,
		wantErr: ErrPeerDown,
	}, {
		// Member 1 is delivered and acknowledged, member 2 never arrives: the
		// group fails at p = 2, whose local half (W) stands.
		name: "partial acknowledgment",
		prog: groupProgram(local, up(1, "U"), up(1, "W")),
		opts: func() Options {
			netB := compart.NewNetwork(2)
			dep := NewDeployment().AddLocation("A", nil).AddLocation("B", netB)
			dep.Place("f", "A").Place("g2", "A").Place("g1", "B")
			dep.Connect("A", "B", dropKeyUplink(netB, "W"))
			return Options{Deploy: dep, AckTimeout: 60 * time.Millisecond}
		},
		wantErr: ErrSendFailed,
	}, {
		// The transaction's rollback takes back U as well as W: it subsumes
		// the step's own undo.
		name: "inside a transaction",
		prog: groupProgram(local,
			dsl.Otherwise{Try: dsl.Txn{Body: []dsl.Expr{up(1, "U"), up(2, "W"), up(2, "Flag")}}, Handler: dsl.Skip{}}),
		before: crashG2,
	}, {
		// g1's guard reads f::j@Flag in process: the assert's local half may
		// not run ahead of U's acknowledgment, so nothing is grouped.
		name: "remotely read proposition",
		prog: groupProgramGuarded(formula.And(formula.P("Go"), formula.At("f::j", "Flag")), local, up(1, "U"), up(1, "Flag")),
	}}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ring := obsv.NewRingSink(4096)
			opts := Options{AckTimeout: 5 * time.Second}
			if sc.opts != nil {
				opts = sc.opts()
			}
			opts.Trace = ring
			s := mustSystem(t, sc.prog, opts)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := s.RunMain(ctx); err != nil {
				t.Fatal(err)
			}
			if sc.before != nil {
				sc.before(t, s)
			}
			err := s.Invoke(ctx, "f", "j")
			cancel()
			switch {
			case (sc.wantErr == nil) != (err == nil):
				t.Fatalf("invoke: %v, want %v", err, sc.wantErr)
			case err != nil && !errors.Is(err, sc.wantErr) && !strings.Contains(err.Error(), sc.wantErr.Error()):
				t.Fatalf("invoke: %v, want %v", err, sc.wantErr)
			}
			outcome := observeSeq(t, s, ring, err)
			for n, want := range sc.batches {
				inst := fmt.Sprintf("g%d", n+1)
				if j := s.junctionQuiet(inst, "j"); j != nil && j.met.RemoteBatches.Load() != want {
					t.Errorf("%s absorbed %d delivery groups, want %d", inst, j.met.RemoteBatches.Load(), want)
				}
			}
			s.Close()
			checkFrozen(t, "seq", outcome.String(), s.Plan(), ring)
		})
	}
}

// TestGroupedSeqOtherwiseExpiryRacingAck puts the ack of a two-member group
// right at the otherwise[t] deadline, as TestOtherwiseExpiryRacingAck does
// for a par. A sequence adds a fate to check: when the deadline wins, the
// group failed at its first member, so the second member's local half must be
// gone; when the ack wins, both stand.
//
// A firing whose try only began after its t had passed — the goroutine held
// off a processor between arming the deadline and the try's first step, as
// TestDeadlineExpiryRacingDisarm also sees — finds its deadline over, so the
// group is never formed and neither local half is applied. That is a late
// start, not a wrong fate, when the handler ran at least t after Invoke
// began; one that ran sooner had a deadline that ended early, and fails the
// test.
//
// In a bubble no firing starts late, since time stands still while one is
// runnable, and each round's fate is exact (racingLatency): an ack due
// before t leaves Late unset with both local halves standing, one due after
// t runs the handler and leaves W's half gone, and a tie may end either way.
func TestGroupedSeqOtherwiseExpiryRacingAck(t *testing.T) {
	bubble(t, groupedSeqOtherwiseExpiryRacingAck)
}

func groupedSeqOtherwiseExpiryRacingAck(t *testing.T) {
	const timeout = 4 * time.Millisecond
	epoch := time.Now()
	var handledAt atomic.Int64 // when the last handler ran, since epoch
	p := groupProgram(dsl.Decls(dsl.InitProp{Name: "Late", Init: false}, dsl.InitProp{Name: "U", Init: false}, dsl.InitProp{Name: "W", Init: false}),
		dsl.Retract{Prop: dsl.PR("Late")}, dsl.Retract{Prop: dsl.PR("U")}, dsl.Retract{Prop: dsl.PR("W")},
		dsl.OtherwiseT(
			dsl.Seq{dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Assert{Target: g(1), Prop: dsl.PR("W")}},
			timeout,
			dsl.Seq{
				dsl.Host{Label: "handled", Fn: func(dsl.HostCtx) error { handledAt.Store(int64(time.Since(epoch))); return nil }},
				dsl.Assert{Prop: dsl.PR("Late")},
			},
		))
	s := mustSystem(t, p, Options{AckTimeout: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	tb := s.junctionQuiet("f", "j").Table()
	late, lateStarts := 0, 0
	const rounds = 60
	for i := 0; i < rounds; i++ {
		lat := racingLatency(i, timeout)
		s.Net().SetLink("f::j", "g1::j", compart.LinkConfig{Latency: lat})
		s.Net().SetLink("g1::j", "f::j", compart.LinkConfig{Latency: lat})
		invoked := time.Since(epoch)
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		isLate, _ := tb.Prop("Late")
		u, _ := tb.Prop("U")
		w, _ := tb.Prop("W")
		if due := 2 * lat; bubbled && (!u || w == isLate || due != timeout && isLate != (due > timeout)) {
			t.Fatalf("round %d: the ack was due after %v against a deadline of %v, yet late=%v leaves U=%v W=%v at the sender", i, due, timeout, isLate, u, w)
		}
		if isLate && !u && !w {
			if ended := time.Duration(handledAt.Load()) - invoked; ended < timeout {
				t.Fatalf("round %d: the group never started and its handler ran %v after Invoke began, within its %v", i, ended, timeout)
			}
			lateStarts++
		} else if !u || w == isLate {
			t.Fatalf("round %d: late=%v leaves U=%v W=%v at the sender", i, isLate, u, w)
		}
		if isLate {
			late++
		}
		if n := s.pendingAcks("f::j", "g1::j"); n != 0 {
			t.Fatalf("round %d: %d updates left awaiting acks", i, n)
		}
	}
	t.Logf("%d of %d groups lost the race to otherwise[t]; %d of those never started, their firing late", late, rounds, lateStarts)
	// Every group was delivered whether or not its statements waited for it;
	// a group that never started was never sent.
	s.Net().SetLink("f::j", "g1::j", compart.LinkConfig{})
	s.Net().SetLink("g1::j", "f::j", compart.LinkConfig{})
	sink := s.junctionQuiet("g1", "j").met
	want := uint64(2 * (rounds - lateStarts))
	for deadline := time.Now().Add(5 * time.Second); sink.RemoteQueued.Load() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("sink queued %d updates, want %d", sink.RemoteQueued.Load(), want)
		}
	}
}

// TestMigrateSinkBetweenSeqGroups: the destination of a run moves to another
// location between two firings. The second group continues the pair's
// sequence space, crosses the new uplink as one group message of two, and
// is acknowledged from there.
func TestMigrateSinkBetweenSeqGroups(t *testing.T) {
	netA, netB := compart.NewNetwork(1), compart.NewNetwork(2)
	defer netA.Close()
	defer netB.Close()
	var frames []int // updates per frame on the A->B uplink
	dep := NewDeployment().AddLocation("A", netA).AddLocation("B", netB)
	dep.Connect("A", "B", countingUplink(netB, &frames))
	ring := obsv.NewRingSink(1024)
	p := groupProgram(dsl.Decls(dsl.InitData{Name: "d"}),
		dsl.Save{Data: "d", From: func(dsl.HostCtx) ([]byte, error) { return []byte("payload"), nil }},
		dsl.Write{Data: "d", To: g(1)}, dsl.Assert{Target: g(1), Prop: dsl.PR("U")})
	s := mustSystem(t, p, Options{Deploy: dep, AckTimeout: 5 * time.Second, Trace: ring, DisableDrivers: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(ctx, "f", "j"); err != nil {
		t.Fatal(err)
	}
	if err := s.MigrateInstance("g1", "B"); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(ctx, "f", "j"); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(frames) != "[2]" {
		t.Fatalf("uplink frames after the move carried %v updates, want one group of 2", frames)
	}
	var seqs []int64
	for _, e := range ring.Events() {
		if e.Kind == obsv.EvRemoteQueued {
			seqs = append(seqs, e.N)
		}
	}
	if fmt.Sprint(seqs) != "[1 2 3 4]" || s.pendingAcks("f::j", "g1::j") != 0 {
		t.Fatalf("remote.queued seqs %v (want 1..4 in order), %d awaiting acks", seqs, s.pendingAcks("f::j", "g1::j"))
	}
	if n := s.junctionQuiet("g1", "j").Table().PendingLen(); n != 4 {
		t.Fatalf("migrated sink holds %d updates, want 4", n)
	}
}

// TestTxnRollbackSparesSiblingCommit: two transactions in sibling par arms
// both have Shared in their static write-set. The test holds the sibling back
// until the failing one has taken its snapshot (Mine is its first write), lets
// the sibling commit Shared, and only then releases the failing one, which
// fails before its own statement on Shared is reached: its rollback must take
// back what it wrote (Mine) and leave the sibling's commit alone.
func TestTxnRollbackSparesSiblingCommit(t *testing.T) {
	t.Run("compiled", txnRollbackSparesSiblingCommit)
}

func txnRollbackSparesSiblingCommit(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("T").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Shared", Init: false}, dsl.InitProp{Name: "Mine", Init: false},
			dsl.InitProp{Name: "Release", Init: false}, dsl.InitProp{Name: "Sibling", Init: false},
			dsl.InitProp{Name: "Never", Init: false}),
		dsl.Par{
			dsl.Otherwise{
				Try: dsl.Txn{Body: []dsl.Expr{
					dsl.Assert{Prop: dsl.PR("Mine")},
					dsl.Wait{Cond: formula.P("Release")},
					dsl.Verify{Cond: formula.P("Never")},
					dsl.Assert{Prop: dsl.PR("Shared")},
				}},
				Handler: dsl.Skip{},
			},
			dsl.Txn{Body: []dsl.Expr{dsl.Wait{Cond: formula.P("Sibling")}, dsl.Assert{Prop: dsl.PR("Shared")}}},
		},
	))
	p.Instance("i", "T")
	p.SetMain(dsl.Start{Instance: "i"})
	s := mustSystem(t, p, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	j := s.junctionQuiet("i", "j")
	changed := j.Table().Subscribe([]string{"Mine", "Shared"}, nil)
	defer j.Table().Unsubscribe(changed)
	done := make(chan error, 1)
	go func() { done <- s.Invoke(ctx, "i", "j") }()
	awaitProp := func(name string) {
		t.Helper()
		for v := false; !v; v, _ = j.Table().Prop(name) {
			select {
			case <-changed.Ch():
			case err := <-done:
				t.Fatalf("invocation ended before %s was set: %v", name, err)
			}
		}
	}
	awaitProp("Mine") // the failing transaction holds its snapshot
	j.InjectProp("Sibling", true)
	awaitProp("Shared") // the sibling committed
	j.InjectProp("Release", true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, _ := j.Table().Prop("Shared"); !v {
		t.Error("the failed transaction's rollback clobbered Shared, which its sibling had committed")
	}
	if v, _ := j.Table().Prop("Mine"); v {
		t.Error("the failed transaction's own write (Mine) survived its rollback")
	}
	if m := j.met; m.TxnRollbacks.Load() != 1 || m.TxnCommits.Load() != 1 {
		t.Errorf("%d rollbacks, %d commits, want 1 and 1", m.TxnRollbacks.Load(), m.TxnCommits.Load())
	}
}

// TestTxnRollbackRestoresIdxFamilyWithSelfElement holds a failed
// transaction's rollback to the keys the table really holds when an
// idx-indexed assert's set element is a me:: token (Fig. 14): the runtime
// resolves the element, Flag[me::junction] is the cell Flag[a::j], and the
// transaction's write-set must name that cell too. The literal element is
// the control.
func TestTxnRollbackRestoresIdxFamilyWithSelfElement(t *testing.T) {
	for _, elem := range []string{"me::junction", "a::j"} {
		t.Run(elem, func(t *testing.T) {
			p := dsl.NewProgram()
			p.Type("T").Junction("j", dsl.Def(
				dsl.Decls(dsl.DeclSet{Name: "S", Elems: []string{elem}}, dsl.DeclIdx{Name: "i", Of: "S"},
					dsl.InitProp{Name: dsl.IndexedName("Flag", elem), Init: false},
					dsl.InitProp{Name: "Nope", Init: false}),
				dsl.IdxAssign{Idx: "i", Elem: elem},
				dsl.Otherwise{
					Try:     dsl.Txn{Body: []dsl.Expr{dsl.Assert{Prop: dsl.PRIdx("Flag", "i")}, dsl.Verify{Cond: formula.P("Nope")}}},
					Handler: dsl.Skip{},
				},
			))
			p.Instance("a", "T")
			p.SetMain(dsl.Start{Instance: "a"})
			s := mustSystem(t, p, Options{})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.RunMain(ctx); err != nil {
				t.Fatal(err)
			}
			if err := s.Invoke(ctx, "a", "j"); err != nil {
				t.Fatal(err)
			}
			j := s.junctionQuiet("a", "j")
			if v, err := j.Table().Prop("Flag[a::j]"); err != nil || v {
				t.Fatalf("Flag[a::j] = %v (%v) after the failed transaction, want false: the rollback missed the cell", v, err)
			}
			if m := j.met; m.TxnRollbacks.Load() != 1 {
				t.Errorf("%d rollbacks, want 1", m.TxnRollbacks.Load())
			}
		})
	}
}

// TestEmptyTxnSnapshotsNothing: a transaction snapshots only what its body
// can write, so ⟨| |⟩ takes nothing, however large the table: firing it
// allocates no more than firing skip.
func TestEmptyTxnSnapshotsNothing(t *testing.T) {
	firingAllocs := func(body dsl.Expr) float64 {
		s := oneJunction(t, dsl.Def(dsl.Decls(dsl.InitData{Name: "blob"}), body))
		if err := s.junctionQuiet("i", "j").Table().SetData("blob", make([]byte, 64<<10)); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		fire := func() {
			if err := s.Invoke(ctx, "i", "j"); err != nil {
				t.Fatal(err)
			}
		}
		fire()
		return testing.AllocsPerRun(100, fire)
	}
	skip, txn := firingAllocs(dsl.Skip{}), firingAllocs(dsl.Txn{})
	if txn > skip {
		t.Fatalf("firing an empty transaction allocates %v objects, skip %v: it snapshots what it cannot write", txn, skip)
	}
}
