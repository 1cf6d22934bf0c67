package runtime

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/events"
	"csaw/internal/formula"
	"csaw/internal/obsv"
	"csaw/internal/plan"
)

// The vectorised par step (compilePar) sends a par's remote updates as
// per-destination groups from the scheduling goroutine. Each scenario is held
// to two references: the outcome frozen under testdata/par — generated once
// from the reference interpreter's goroutine-per-arm par, at the commit before
// it was deleted, and changed since only by hand with a stated reason — and
// the §8 denotation, which the run's trace must conform to.

// checkFrozen compares one scenario's outcome with testdata/<table>/<row>.golden
// and its trace with the denotation of the program it ran.
func checkFrozen(t *testing.T, table, got string, pp *plan.Program, ring *obsv.RingSink) {
	t.Helper()
	_, row, _ := strings.Cut(t.Name(), "/")
	path := filepath.Join("testdata", table, row+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got+"\n" != string(want) {
		t.Errorf("outcome diverges from %s:\n  got:    %s\n  frozen: %s", path, got, want)
	}
	if err := events.ConformsProgram(pp, ring.Events()); err != nil {
		t.Errorf("the run is not one the §8 denotation allows: %v", err)
	}
}

// groupProgram builds source f::j with the given declarations and body, and
// sinks g1::j, g2::j whose guard never holds, so arriving updates only queue
// until the test schedules the sink by hand. The sinks declare the datum
// never, which no one saves, so a write of it fails at the sender as undef.
func groupProgram(decls []dsl.Decl, body ...dsl.Expr) *dsl.Program {
	return groupProgramGuarded(formula.P("Go"), decls, body...)
}

// groupProgramGuarded is groupProgram with the sinks' guard given.
func groupProgramGuarded(sinkGuard formula.Formula, decls []dsl.Decl, body ...dsl.Expr) *dsl.Program {
	p := dsl.NewProgram()
	p.Type("srcT").Junction("j", dsl.Def(decls, body...))
	p.Type("sinkT").Junction("j", dsl.Def(
		dsl.Decls(
			dsl.InitProp{Name: "U", Init: false}, dsl.InitProp{Name: "V", Init: true},
			dsl.InitProp{Name: "W", Init: false}, dsl.InitProp{Name: "Go", Init: false},
			dsl.InitProp{Name: "Flag", Init: false}, dsl.InitData{Name: "d"},
			dsl.InitData{Name: "never"},
		),
		dsl.Skip{},
	).Guarded(sinkGuard))
	p.Instance("f", "srcT").Instance("g1", "sinkT").Instance("g2", "sinkT")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g1"}, dsl.Start{Instance: "g2"}})
	return p
}

func g(n int) dsl.JunctionRef { return dsl.J(fmt.Sprintf("g%d", n), "j") }

// parOutcome is what one run of a scenario leaves behind, in a form that
// does not depend on how the arms were interleaved.
type parOutcome struct {
	err    string         // the invocation's error text, "" on success
	sinks  string         // each sink's table after applying its queue
	queued map[string]int // updates queued per "sink<-peer key"
}

func (o parOutcome) String() string {
	keys := make([]string, 0, len(o.queued))
	for k, n := range o.queued {
		keys = append(keys, fmt.Sprintf("%s x%d", k, n))
	}
	sort.Strings(keys)
	return fmt.Sprintf("err=%q sinks=%s queued=%v", o.err, o.sinks, keys)
}

// observe collects the outcome and asserts what must hold whatever the
// lowering: per-pair FIFO (strictly increasing remote.queued seqs per
// sender) and no waiter left behind.
func observe(t *testing.T, s *System, ring *obsv.RingSink, invokeErr error) parOutcome {
	t.Helper()
	out := parOutcome{queued: map[string]int{}}
	if invokeErr != nil {
		out.err = invokeErr.Error()
	}
	last := map[string]int64{}
	for _, e := range ring.Events() {
		if e.Kind != obsv.EvRemoteQueued {
			continue
		}
		pair := e.Junction + "<-" + e.Peer
		if e.N <= last[pair] {
			t.Errorf("FIFO violated on %s: seq %d queued after %d", pair, e.N, last[pair])
		}
		last[pair] = e.N
		out.queued[pair+" "+e.Key]++
	}
	var b strings.Builder
	for _, inst := range []string{"g1", "g2"} {
		if n := s.pendingAcks("f::j", inst+"::j"); n != 0 {
			t.Errorf("%d updates still awaiting acks on f::j -> %s::j", n, inst)
		}
		j := s.junctionQuiet(inst, "j")
		if j == nil || !s.InstanceRunning(inst) {
			fmt.Fprintf(&b, "%s{down} ", inst)
			continue
		}
		j.Table().ApplyPending()
		fmt.Fprintf(&b, "%s{", inst)
		for _, p := range []string{"U", "V", "W"} {
			v, _ := j.Table().Prop(p)
			fmt.Fprintf(&b, "%s=%v ", p, v)
		}
		d, err := j.Table().Data("d")
		fmt.Fprintf(&b, "d=%q,%v} ", d, err != nil)
	}
	out.sinks = b.String()
	return out
}

func TestVectorisedParMatchesPerArmPar(t *testing.T) {
	saveD := dsl.Save{Data: "d", From: func(dsl.HostCtx) ([]byte, error) { return []byte("payload"), nil }}
	dataDecls := dsl.Decls(dsl.InitData{Name: "d"}, dsl.InitData{Name: "never"},
		dsl.InitProp{Name: "Ready", Init: false}, dsl.InitProp{Name: "U", Init: false})
	idxDecls := dsl.Decls(
		dsl.DeclSet{Name: "Sinks", Elems: []string{"g1::j", "g2::j"}},
		dsl.DeclIdx{Name: "a", Of: "Sinks"}, dsl.DeclIdx{Name: "b", Of: "Sinks"}, dsl.DeclIdx{Name: "unset", Of: "Sinks"},
		dsl.InitData{Name: "d"}, dsl.InitData{Name: "never"},
	)
	scenarios := []struct {
		name string
		prog *dsl.Program
		// before runs once the instances are up; wantErr is a sentinel the
		// invocation must fail with (nil: must succeed).
		before  func(t *testing.T, s *System)
		wantErr error
	}{{
		name: "one destination",
		prog: groupProgram(nil,
			dsl.Par{dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Retract{Target: g(1), Prop: dsl.PR("V")},
				dsl.Assert{Target: g(1), Prop: dsl.PR("W")}, dsl.Assert{Target: g(1), Prop: dsl.PR("U")}}),
	}, {
		// Update arms beside a host arm and a wait arm the host arm releases;
		// the nested Par is what ForExpr(OpPar) emits.
		name: "mixed arms",
		prog: groupProgram(dataDecls, saveD,
			dsl.Par{
				dsl.Assert{Target: g(1), Prop: dsl.PR("U")},
				dsl.Host{Label: "ready", Writes: []string{"Ready"}, Fn: func(c dsl.HostCtx) error { return c.SetProp("Ready", true) }},
				dsl.Par{
					dsl.Write{Data: "d", To: g(1)},
					dsl.Wait{Cond: formula.P("Ready")},
					dsl.Par{dsl.Seq{dsl.Assert{Target: g(1), Prop: dsl.PR("W")}}, dsl.Assert{Prop: dsl.PR("U")}},
				},
				dsl.Retract{Target: g(1), Prop: dsl.PR("V")},
			}),
	}, {
		name: "several destinations",
		prog: groupProgram(dataDecls, saveD,
			dsl.Par{
				dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Assert{Target: g(2), Prop: dsl.PR("W")},
				dsl.Write{Data: "d", To: g(2)}, dsl.Retract{Target: g(1), Prop: dsl.PR("V")},
				dsl.Assert{Target: g(2), Prop: dsl.PR("U")}, dsl.Write{Data: "d", To: g(1)},
			}),
	}, {
		name: "idx targets",
		prog: groupProgram(idxDecls, saveD,
			dsl.IdxAssign{Idx: "a", Elem: "g2::j"}, dsl.IdxAssign{Idx: "b", Elem: "g1::j"},
			dsl.Par{
				dsl.Assert{Target: dsl.ByIdx("a"), Prop: dsl.PR("U")}, dsl.Assert{Target: dsl.ByIdx("b"), Prop: dsl.PR("W")},
				dsl.Write{Data: "d", To: dsl.ByIdx("a")}, dsl.Retract{Target: dsl.ByIdx("a"), Prop: dsl.PR("V")},
			}),
	}, {
		// Arm 1 (unset idx) and arm 3 (undefined data) both fail to resolve:
		// arm 1's error is the statement's, and arms 0, 2 and 4 are delivered.
		name: "failing resolution",
		prog: groupProgram(idxDecls,
			dsl.Par{
				dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Assert{Target: dsl.ByIdx("unset"), Prop: dsl.PR("W")},
				dsl.Retract{Target: g(1), Prop: dsl.PR("V")}, dsl.Write{Data: "never", To: g(2)},
				dsl.Assert{Target: g(2), Prop: dsl.PR("U")},
			}),
		wantErr: ErrIdxUndef,
	}, {
		// g2 is down: its group fails fast, g1's is delivered all the same.
		name: "peer down",
		prog: groupProgram(nil,
			dsl.Par{
				dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Assert{Target: g(2), Prop: dsl.PR("U")},
				dsl.Retract{Target: g(1), Prop: dsl.PR("V")}, dsl.Assert{Target: g(2), Prop: dsl.PR("W")},
			}),
		before:  func(_ *testing.T, s *System) { s.CrashInstance("g2") },
		wantErr: ErrPeerDown,
	}, {
		// g2 swallows updates: otherwise[t] expires, the whole range is
		// forgotten and the handler's update follows on the same pair.
		name: "otherwise expiry",
		prog: groupProgram(nil,
			dsl.OtherwiseT(
				dsl.Par{dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Assert{Target: g(2), Prop: dsl.PR("U")},
					dsl.Assert{Target: g(2), Prop: dsl.PR("W")}},
				30*time.Millisecond,
				dsl.Retract{Target: g(1), Prop: dsl.PR("V")},
			)),
		before: func(_ *testing.T, s *System) { s.Net().Register("g2::j", func(compart.Message) {}) },
	}}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ring := obsv.NewRingSink(4096)
			s := mustSystem(t, sc.prog, Options{AckTimeout: 5 * time.Second, Trace: ring})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := s.RunMain(ctx); err != nil {
				t.Fatal(err)
			}
			if sc.before != nil {
				sc.before(t, s)
			}
			err := s.Invoke(ctx, "f", "j")
			cancel()
			if (sc.wantErr == nil) != (err == nil) || !errors.Is(err, sc.wantErr) {
				t.Fatalf("invoke: %v, want %v", err, sc.wantErr)
			}
			outcome := observe(t, s, ring, err)
			s.Close()
			checkFrozen(t, "par", outcome.String(), s.Plan(), ring)
		})
	}
}

// TestOtherwiseExpiryRacingAck puts the delivery ack of a group right at the
// otherwise[t] deadline (link latency = half the timeout each way), so over
// the iterations the ack sometimes wins and sometimes loses against the
// cancellation. Either way the statement ends, the range waiter is gone, and
// the pair's window keeps working: an ack that arrives for a forgotten range
// must be ignored, and one that raced the cancel must complete the statement
// normally.
//
// In a bubble the ack lands exactly when its latency says, so each round's
// fate is known (racingLatency): an ack due before t completes the statement
// with Late unset, one due after t loses to the handler, and only a tie may
// go either way.
func TestOtherwiseExpiryRacingAck(t *testing.T) { bubble(t, otherwiseExpiryRacingAck) }

// racingLatency is the one-way link latency of round i of a test that races
// a group's ack against its otherwise[t] deadline. In real time it is t/2, so
// the ack is due at t and scheduling decides each round. In a bubble a due
// ack is never late, and timers due at one instant fire in no set order, so
// the rounds cycle through t/2 - t/8, t/2 and t/2 + t/8: the ack is due
// strictly before t, at t, and strictly after t.
func racingLatency(i int, t time.Duration) time.Duration {
	if !bubbled {
		return t / 2
	}
	return t/2 + time.Duration(i%3-1)*t/8
}

func otherwiseExpiryRacingAck(t *testing.T) {
	const timeout = 4 * time.Millisecond
	p := groupProgram(dsl.Decls(dsl.InitProp{Name: "Late", Init: false}),
		dsl.OtherwiseT(
			dsl.Par{dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Assert{Target: g(1), Prop: dsl.PR("W")},
				dsl.Retract{Target: g(1), Prop: dsl.PR("V")}},
			timeout,
			dsl.Assert{Prop: dsl.PR("Late")},
		))
	s := mustSystem(t, p, Options{AckTimeout: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	f := s.junctionQuiet("f", "j")
	late := 0
	const rounds = 60
	for i := 0; i < rounds; i++ {
		lat := racingLatency(i, timeout)
		s.Net().SetLink("f::j", "g1::j", compart.LinkConfig{Latency: lat})
		s.Net().SetLink("g1::j", "f::j", compart.LinkConfig{Latency: lat})
		if err := f.Table().SetProp("Late", false); err != nil {
			t.Fatal(err)
		}
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		v, _ := f.Table().Prop("Late")
		if v {
			late++
		}
		if due := 2 * lat; bubbled && due != timeout && v != (due > timeout) {
			t.Fatalf("round %d: the ack was due after %v against a deadline of %v, yet Late = %v", i, due, timeout, v)
		}
		if n := s.pendingAcks("f::j", "g1::j"); n != 0 {
			t.Fatalf("round %d: %d updates left awaiting acks", i, n)
		}
	}
	t.Logf("%d of %d groups lost the race to otherwise[t]", late, rounds)
	// Every group was delivered whether or not its statement waited for it.
	s.Net().SetLink("f::j", "g1::j", compart.LinkConfig{})
	s.Net().SetLink("g1::j", "f::j", compart.LinkConfig{})
	deadline := time.Now().Add(5 * time.Second)
	sink := s.junctionQuiet("g1", "j").met
	for sink.RemoteQueued.Load() != 3*rounds {
		if time.Now().After(deadline) {
			t.Fatalf("sink queued %d updates, want %d", sink.RemoteQueued.Load(), 3*rounds)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJitteredLinkCompletesRangesOutOfOrder: on a jittered in-process link a
// par's group and the single update of a sequential arm beside it overtake
// each other, so the receiver acknowledges whole ranges as vectored extras
// ahead of its cumulative frontier. Every statement must still complete, the
// window must drain, and the frontier must catch up with the last sequence.
func TestJitteredLinkCompletesRangesOutOfOrder(t *testing.T) {
	p := groupProgram(nil,
		dsl.Par{
			dsl.Seq{dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Retract{Target: g(1), Prop: dsl.PR("U")}},
			dsl.Assert{Target: g(1), Prop: dsl.PR("W")}, dsl.Retract{Target: g(1), Prop: dsl.PR("V")},
			dsl.Assert{Target: g(1), Prop: dsl.PR("V")},
			dsl.Seq{dsl.Retract{Target: g(1), Prop: dsl.PR("W")}},
		})
	ring := obsv.NewRingSink(1 << 14)
	s := mustSystem(t, p, Options{AckTimeout: 5 * time.Second, Trace: ring})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	s.Net().SetLink("f::j", "g1::j", compart.LinkConfig{Jitter: 2 * time.Millisecond})
	const rounds = 40
	for i := 0; i < rounds; i++ {
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if n := s.pendingAcks("f::j", "g1::j"); n != 0 {
		t.Fatalf("%d updates left awaiting acks", n)
	}
	w := s.window("f::j", "g1::j")
	w.mu.Lock()
	cum, next := w.cum, w.nextSeq
	w.mu.Unlock()
	if next != 6*rounds || cum != next {
		t.Fatalf("window issued %d sequences (want %d), frontier at %d", next, 6*rounds, cum)
	}
	reordered := 0
	var last int64
	for _, e := range ring.Events() {
		if e.Kind == obsv.EvRemoteQueued {
			if e.N < last {
				reordered++
			}
			last = e.N
		}
	}
	if reordered == 0 {
		t.Skip("the jitter never reordered two sends in this run")
	}
	t.Logf("%d arrivals overtook an earlier sequence", reordered)
}

// TestRangeWaiterCreditsEachSequenceOnce drives one window by hand through
// the ack orders that could credit a sequence twice: a vectored extra that
// the cumulative frontier later passes over, a repeated extra, and a
// frontier cutting through a range.
func TestRangeWaiterCreditsEachSequenceOnce(t *testing.T) {
	s := mustSystem(t, groupProgram(nil, dsl.Skip{}), Options{AckTimeout: time.Minute})
	w := s.window("a", "b")
	post := func(n int) *rangeWaiter {
		wt := &rangeWaiter{ch: make(chan error, 1)}
		w.mu.Lock()
		wt.lo, wt.hi = w.nextSeq+1, w.nextSeq+uint64(n)
		wt.base, wt.remaining = wt.lo-1, n
		w.nextSeq = wt.hi
		w.pushLocked(wt)
		w.mu.Unlock()
		return wt
	}
	done := func(wt *rangeWaiter) bool {
		select {
		case err := <-wt.ch:
			if err != nil {
				t.Fatalf("range [%d,%d] failed: %v", wt.lo, wt.hi, err)
			}
			return true
		default:
			return false
		}
	}
	r1, r2, r3 := post(5), post(1), post(3) // [1,5] [6,6] [7,9]
	steps := []struct {
		cum     uint64
		extras  []uint64
		pending int
		done    []*rangeWaiter
	}{
		{0, []uint64{2}, 8, nil},
		{0, []uint64{2}, 8, nil},                   // a repeated extra is not news
		{2, nil, 7, nil},                           // the frontier passes 1 and the already credited 2
		{2, []uint64{6, 9}, 5, []*rangeWaiter{r2}}, // a single completes on its extra
		{1, []uint64{1, 2}, 5, nil},                // a stale ack changes nothing
		{4, []uint64{5}, 2, []*rangeWaiter{r1}},    // 3, 4 cumulatively and 5 as an extra
		{8, nil, 0, []*rangeWaiter{r3}},            // 7, 8 cumulatively; 9 was credited before
	}
	for i, st := range steps {
		w.ack(st.cum, st.extras)
		if n := s.pendingAcks("a", "b"); n != st.pending {
			t.Fatalf("step %d: %d updates pending, want %d", i, n, st.pending)
		}
		for _, wt := range st.done {
			if !done(wt) {
				t.Fatalf("step %d: range [%d,%d] not completed", i, wt.lo, wt.hi)
			}
		}
		for _, wt := range []*rangeWaiter{r1, r2, r3} {
			if done(wt) {
				t.Fatalf("step %d: range [%d,%d] completed a second time or too early", i, wt.lo, wt.hi)
			}
		}
	}
}

// TestMigrateSinkBetweenGroups: the sink moves to another location between
// two firings of the same par. The pair's window and sequence space live
// with the sender, so the second group continues where the first stopped,
// crosses the new uplink as one group message, and is acknowledged from
// there. The
// arms alternate between two propositions, so every update is a queue entry
// of its own and the migrated queue's length counts them all.
func TestMigrateSinkBetweenGroups(t *testing.T) {
	const width = 12
	arms := make(dsl.Par, width)
	for i := range arms {
		arms[i] = dsl.Assert{Target: g(1), Prop: dsl.PR([]string{"U", "W"}[i%2])}
	}
	netA, netB := compart.NewNetwork(1), compart.NewNetwork(2)
	defer netA.Close()
	defer netB.Close()
	var frames []int // updates per frame on the A->B uplink
	dep := NewDeployment().AddLocation("A", netA).AddLocation("B", netB)
	dep.Connect("A", "B", countingUplink(netB, &frames))
	ring := obsv.NewRingSink(4096)
	s := mustSystem(t, groupProgram(nil, arms), Options{Deploy: dep, AckTimeout: 5 * time.Second, Trace: ring, DisableDrivers: true})
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
	if fmt.Sprint(frames) != fmt.Sprint([]int{width}) {
		t.Fatalf("uplink frames after the move carried %v updates, want one group of %d", frames, width)
	}
	if n := s.junctionQuiet("g1", "j").Table().PendingLen(); n != 2*width {
		t.Fatalf("migrated sink holds %d updates, want %d", n, 2*width)
	}
	var seqs []int64
	for _, e := range ring.Events() {
		if e.Kind == obsv.EvRemoteQueued {
			seqs = append(seqs, e.N)
		}
	}
	for i, seq := range seqs {
		if seq != int64(i+1) {
			t.Fatalf("remote.queued seqs %v, want 1..%d in order", seqs, 2*width)
		}
	}
	if len(seqs) != 2*width || s.pendingAcks("f::j", "g1::j") != 0 {
		t.Fatalf("%d updates queued, %d awaiting acks", len(seqs), s.pendingAcks("f::j", "g1::j"))
	}
}

// countingUplink forwards into dst and appends to *frames how many updates each
// group message carried, leaving out the migration's own control frames.
func countingUplink(dst *compart.Network, frames *[]int) Uplink {
	return func(m compart.Message) error {
		if m.Kind == compart.KindGroup {
			_, members, ok := decodeGroup(m.Payload)
			if !ok {
				return fmt.Errorf("malformed group from %s", m.From)
			}
			*frames = append(*frames, seqsOf(members))
		}
		return dst.Send(m)
	}
}

// TestInProcessLocationsCarryGroups: two locations with no Connect call
// forward through the destination network's Send, which carries the group
// message as it carries any other.
func TestInProcessLocationsCarryGroups(t *testing.T) {
	const width = 8
	arms := make(dsl.Par, width)
	for i := range arms {
		arms[i] = dsl.Assert{Target: g(1), Prop: dsl.PR("U")}
	}
	dep := NewDeployment().AddLocation("A", nil).AddLocation("B", nil)
	dep.Place("f", "A").Place("g2", "A").Place("g1", "B")
	s := mustSystem(t, groupProgram(nil, arms), Options{Deploy: dep, AckTimeout: 2 * time.Second, DisableDrivers: true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(ctx, "f", "j"); err != nil {
		t.Fatal(err)
	}
	m := s.junctionQuiet("g1", "j").met
	if m.RemoteQueued.Load() != width || m.RemoteBatches.Load() != 1 {
		t.Fatalf("sink queued %d updates in %d batches, want %d in 1", m.RemoteQueued.Load(), m.RemoteBatches.Load(), width)
	}
	for _, loc := range []string{"A", "B"} {
		if st := dep.Net(loc).Stats(); !st.Conserved() {
			t.Fatalf("location %s counters not conserved: %+v", loc, st)
		}
	}
	// f's group crossed A's proxy and B's network as one message each way
	// with its ack.
	if st := dep.Net("B").Stats(); st.Sent != 2 {
		t.Fatalf("location B counted %d messages, want the group and its ack", st.Sent)
	}
}

// TestUnscheduledSinkQueueStaysBounded: a sink that is never scheduled while
// 50 firings of a 96-arm par land on it keeps one queue entry, not 4800 — the
// same-key run of every group coalesces into the entry the one before left —
// yet counts every delivery: queued at arrival, and applied by the one
// scheduling that drains the queue, even though its guard refuses.
func TestUnscheduledSinkQueueStaysBounded(t *testing.T) {
	const width, firings = 96, 50
	arms := make(dsl.Par, width)
	for i := range arms {
		arms[i] = dsl.Assert{Target: g(1), Prop: dsl.PR("U")}
	}
	s := mustSystem(t, groupProgram(nil, arms), Options{AckTimeout: 5 * time.Second, DisableDrivers: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < firings; i++ {
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			t.Fatalf("firing %d: %v", i, err)
		}
	}
	sink := s.junctionQuiet("g1", "j")
	if n := sink.Table().PendingLen(); n != 1 {
		t.Fatalf("the unscheduled sink queues %d entries, want 1", n)
	}
	if n := sink.met.RemoteQueued.Load(); n != width*firings {
		t.Fatalf("RemoteQueued = %d, want %d", n, width*firings)
	}
	if err := s.Invoke(ctx, "g1", "j"); !errors.Is(err, ErrNotSchedulable) {
		t.Fatalf("scheduling the sink: %v, want ErrNotSchedulable", err)
	}
	if n := sink.met.RemoteApplied.Load(); n != width*firings {
		t.Fatalf("RemoteApplied = %d after the drain, want %d", n, width*firings)
	}
	if v, _ := sink.Table().Prop("U"); !v || sink.Table().PendingLen() != 0 {
		t.Fatalf("after the drain: U = %v with %d entries queued, want true and 0", v, sink.Table().PendingLen())
	}
}

// TestAckResolvesWithoutSystemLock: an ack finds its window through the acked
// junction's cache, as a send does, so a remote update completes while another
// goroutine holds System.winMu. Only the first ack a junction sees on a pair
// takes the lock, to fill the cache.
func TestAckResolvesWithoutSystemLock(t *testing.T) {
	s := mustSystem(t, groupProgram(nil, dsl.Assert{Target: g(1), Prop: dsl.PR("U")}), Options{AckTimeout: 10 * time.Second})
	ctx := context.Background()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(ctx, "f", "j"); err != nil { // fills both caches
		t.Fatal(err)
	}
	done := make(chan error, 1)
	s.winMu.Lock()
	go func() { done <- s.Invoke(ctx, "f", "j") }()
	select {
	case err := <-done:
		s.winMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		s.winMu.Unlock()
		t.Fatal("a remote update waited for System.winMu")
	}
}
