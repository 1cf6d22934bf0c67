package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/events"
	"csaw/internal/obsv"
)

// TestLossyLinkDeliversGroupsWholeOrNot: a group is one message, so a lossy
// link between two in-process locations delivers it whole or loses it whole.
// Over 500 firings each of a straight-line `write d; assert U` and of a
// 16-arm par of asserts, with a third of the group messages dropped, the sink
// never holds a firing's U without that firing's d, queues 0 or every member
// of each firing, and every ledger balances: each network conserves and no
// update is left awaiting its ack.
func TestLossyLinkDeliversGroupsWholeOrNot(t *testing.T) {
	bubble(t, lossyLinkDeliversGroupsWholeOrNot)
}

func lossyLinkDeliversGroupsWholeOrNot(t *testing.T) {
	const firings = 500
	var stamp atomic.Int64
	saveD := dsl.Save{Data: "d", From: func(dsl.HostCtx) ([]byte, error) {
		return []byte(fmt.Sprint(stamp.Load())), nil
	}}
	par := make(dsl.Par, 16)
	for i := range par {
		par[i] = dsl.Assert{Target: g(1), Prop: dsl.PR("W")}
	}
	for _, sc := range []struct {
		name    string
		body    []dsl.Expr
		members uint64
	}{
		{"write then assert", []dsl.Expr{saveD, dsl.Write{Data: "d", To: g(1)}, dsl.Assert{Target: g(1), Prop: dsl.PR("U")}}, 2},
		{"16-arm par", []dsl.Expr{par}, 16},
	} {
		t.Run(sc.name, func(t *testing.T) {
			dep := NewDeployment().AddLocation("A", nil).AddLocation("B", nil)
			dep.Place("f", "A").Place("g1", "B").Place("g2", "B")
			dep.Net("B").SetLink("f::j", "g1::j", compart.LinkConfig{DropProb: 0.3})
			s := mustSystem(t, groupProgram(dsl.Decls(dsl.InitData{Name: "d"}), sc.body...),
				Options{Deploy: dep, AckTimeout: time.Second, DisableDrivers: true})
			ctx := context.Background()
			if err := s.RunMain(ctx); err != nil {
				t.Fatal(err)
			}
			sink := s.junctionQuiet("g1", "j")
			whole, lost := 0, 0
			for i := 0; i < firings; i++ {
				stamp.Store(int64(i))
				sink.Table().ApplyPending()
				if err := sink.Table().SetProp("U", false); err != nil {
					t.Fatal(err)
				}
				before := sink.met.RemoteQueued.Load()
				// Delivery and its ack are synchronous in process: a group that
				// survived has completed its statement before Send returns, so
				// the deadline only ends the wait for a lost one.
				fctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
				err := s.Invoke(fctx, "f", "j")
				cancel()
				switch queued := sink.met.RemoteQueued.Load() - before; queued {
				case sc.members:
					whole++
					if err != nil {
						t.Fatalf("firing %d: group delivered whole, yet the statement failed: %v", i, err)
					}
				case 0:
					lost++
					if !errors.Is(err, ErrTimeout) {
						t.Fatalf("firing %d: group lost, statement ended with %v, want ErrTimeout", i, err)
					}
				default:
					t.Fatalf("firing %d: the sink queued %d of a group of %d", i, queued, sc.members)
				}
				sink.Table().ApplyPending()
				if u, _ := sink.Table().Prop("U"); u {
					if d, err := sink.Table().Data("d"); err != nil || string(d) != fmt.Sprint(i) {
						t.Fatalf("firing %d: the sink holds U with d = %q, %v", i, d, err)
					}
				}
			}
			if whole == 0 || lost == 0 {
				t.Fatalf("%d groups whole, %d lost: the seed exercises only one side", whole, lost)
			}
			if n := s.pendingAcks("f::j", "g1::j"); n != 0 {
				t.Fatalf("%d updates still awaiting acks at quiescence", n)
			}
			for _, loc := range []string{"A", "B"} {
				if st := dep.Net(loc).Stats(); !st.Conserved() {
					t.Fatalf("location %s counters not conserved: %+v", loc, st)
				}
			}
			if ls := dep.Net("B").LinkStats("f::j", "g1::j"); ls.Sent != firings || ls.Dropped != uint64(lost) {
				t.Fatalf("the lossy link counted %+v, want %d group messages, %d of them dropped", ls, firings, lost)
			}
		})
	}
}

// TestGroupOverFrameLimitSplits: a par of three 7 MiB writes to one junction
// is a group no TCP frame holds. The proxy at the sender's location splits
// it, and the uplink carries two groups in sequence order — the first write,
// then the other two — which the sink receives whole. A single write over the
// 16 MiB limit cannot be split and still fails, as before groups.
func TestGroupOverFrameLimitSplits(t *testing.T) {
	const big = 7 << 20
	values := make([][]byte, 3)
	par := make(dsl.Par, len(values))
	sinkDecls := []dsl.Decl{dsl.InitData{Name: "huge"}}
	srcDecls := []dsl.Decl{dsl.InitData{Name: "huge"}}
	saves := []dsl.Expr{}
	for i := range values {
		name := fmt.Sprintf("d%d", i)
		values[i] = bytes.Repeat([]byte{byte('a' + i)}, big)
		v := values[i]
		saves = append(saves, dsl.Save{Data: name, From: func(dsl.HostCtx) ([]byte, error) { return v, nil }})
		par[i] = dsl.Write{Data: name, To: dsl.J("g", "j")}
		sinkDecls = append(sinkDecls, dsl.InitData{Name: name})
		srcDecls = append(srcDecls, dsl.InitData{Name: name})
	}
	p := dsl.NewProgram()
	p.Type("srcT").
		Junction("three", dsl.Def(srcDecls, append(saves, par)...)).
		Junction("huge", dsl.Def(srcDecls,
			dsl.Save{Data: "huge", From: func(dsl.HostCtx) ([]byte, error) { return make([]byte, 17<<20), nil }},
			dsl.Write{Data: "huge", To: dsl.J("g", "j")}))
	p.Type("sinkT").Junction("j", dsl.Def(sinkDecls, dsl.Skip{}))
	p.Instance("f", "srcT").Instance("g", "sinkT")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})

	tl := newTCPLocations(t, compart.ReconnectConfig{}, nil)
	var mu sync.Mutex
	var carried []string // lo+count of every group the A->B uplink accepted
	tl.dep.Connect("A", "B", func(m compart.Message) error {
		err := tl.up["A"].Send(m)
		if lo, n, _, ok := openGroup(m.Payload); m.Kind == compart.KindGroup && ok && err == nil {
			mu.Lock()
			carried = append(carried, fmt.Sprintf("%d+%d", lo, n))
			mu.Unlock()
		}
		return err
	})
	s := mustSystem(t, p, Options{Deploy: tl.dep.Place("f", "A").Place("g", "B"), AckTimeout: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke(ctx, "f", "three"); err != nil {
		t.Fatalf("the par of three 7 MiB writes: %v", err)
	}
	mu.Lock()
	got := fmt.Sprint(carried)
	mu.Unlock()
	if got != "[1+1 2+2]" {
		t.Fatalf("the uplink carried groups %s, want [1+1 2+2]: the first write, then the other two", got)
	}
	sink := s.junctionQuiet("g", "j")
	sink.Table().ApplyPending()
	for i, want := range values {
		if d, err := sink.Table().Data(fmt.Sprintf("d%d", i)); err != nil || !bytes.Equal(d, want) {
			t.Fatalf("sink d%d: %d bytes, %v; want the %d bytes written", i, len(d), err, len(want))
		}
	}

	hctx, hcancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer hcancel()
	if err := s.Invoke(hctx, "f", "huge"); err == nil {
		t.Fatal("a single 17 MiB write completed")
	}
}

// recordingUplink forwards into dst and keeps a copy of every group payload
// it carries.
func recordingUplink(dst *compart.Network, mu *sync.Mutex, groups *[][]byte) Uplink {
	return func(m compart.Message) error {
		if m.Kind == compart.KindGroup {
			mu.Lock()
			*groups = append(*groups, append([]byte(nil), m.Payload...))
			mu.Unlock()
		}
		return dst.Send(m)
	}
}

// TestParRunCountsEverySequence: a traced par of 96 identical asserts crosses
// as one group of one run member, and yet every update is accounted for on
// its own: 96 remote.queued and 96 remote.acked events under contiguous
// sequences, a trace the §8 denotation allows, 96 more on the sink's
// RemoteQueued and the sender's RemoteAcked, and 96 absorbed when the sink
// applies its queue — the second firing's under the next 96 sequences.
func TestParRunCountsEverySequence(t *testing.T) {
	const width = 96
	var mu sync.Mutex
	var groups [][]byte
	netA, netB := compart.NewNetwork(1), compart.NewNetwork(2)
	defer netA.Close()
	defer netB.Close()
	dep := NewDeployment().AddLocation("A", netA).AddLocation("B", netB)
	dep.Connect("A", "B", recordingUplink(netB, &mu, &groups))
	dep.Place("f", "A").Place("g2", "A").Place("g1", "B")
	ring := obsv.NewRingSink(1 << 12)
	p := groupProgram(nil, dsl.Par(assertsToG1(width)))
	s := mustSystem(t, p, Options{Deploy: dep, AckTimeout: 5 * time.Second, DisableDrivers: true, Trace: ring})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.RunMain(ctx); err != nil {
		t.Fatal(err)
	}
	src, sink := s.junctionQuiet("f", "j"), s.junctionQuiet("g1", "j")
	for round := 1; round <= 2; round++ {
		if err := s.Invoke(ctx, "f", "j"); err != nil {
			t.Fatal(err)
		}
		if n := sink.Table().ApplyPending(); n != width {
			t.Fatalf("round %d: the sink absorbed %d updates, want %d", round, n, width)
		}
		if q, a := sink.met.RemoteQueued.Load(), src.met.RemoteAcked.Load(); q != uint64(round*width) || a != uint64(round*width) {
			t.Fatalf("round %d: %d updates queued at the sink, %d acked at the sender; want %d each", round, q, a, round*width)
		}
	}
	mu.Lock()
	for i, g := range groups {
		lo, members, ok := decodeGroup(g)
		if !ok || lo != uint64(i*width+1) || len(members) != 1 || members[0].n != width {
			t.Fatalf("group %d: lo %d, %d members (ok=%v); want lo %d and one run of %d", i, lo, len(members), ok, i*width+1, width)
		}
	}
	if len(groups) != 2 {
		t.Fatalf("the uplink carried %d groups for two firings", len(groups))
	}
	mu.Unlock()
	var queued, acked []int64
	for _, e := range ring.Events() {
		switch e.Kind {
		case obsv.EvRemoteQueued:
			queued = append(queued, e.N)
		case obsv.EvRemoteAcked:
			acked = append(acked, e.N)
		}
	}
	for _, seqs := range [][]int64{queued, acked} {
		if len(seqs) != 2*width {
			t.Fatalf("%d remote.queued and %d remote.acked events, want %d each", len(queued), len(acked), 2*width)
		}
		for i, seq := range seqs {
			if seq != int64(i+1) {
				t.Fatalf("sequences %v, want 1..%d in order", seqs, 2*width)
			}
		}
	}
	if err := events.ConformsProgram(p, ring.Events()); err != nil {
		t.Fatalf("the run is not one the §8 denotation allows: %v", err)
	}
}

// TestAssertRetractAssertIsNotFolded: only an update identical to the one
// before it folds. `assert U; retract U; assert U`, straight-line or as a
// par, crosses as three members, and the sink, applying its queue, counts
// three and holds U.
func TestAssertRetractAssertIsNotFolded(t *testing.T) {
	arms := []dsl.Expr{
		dsl.Assert{Target: g(1), Prop: dsl.PR("U")},
		dsl.Retract{Target: g(1), Prop: dsl.PR("U")},
		dsl.Assert{Target: g(1), Prop: dsl.PR("U")},
	}
	for _, sc := range []struct {
		name string
		body dsl.Expr
	}{{"straight-line", dsl.Seq(arms)}, {"par", dsl.Par(arms)}} {
		t.Run(sc.name, func(t *testing.T) {
			var mu sync.Mutex
			var groups [][]byte
			netA, netB := compart.NewNetwork(1), compart.NewNetwork(2)
			defer netA.Close()
			defer netB.Close()
			dep := NewDeployment().AddLocation("A", netA).AddLocation("B", netB)
			dep.Connect("A", "B", recordingUplink(netB, &mu, &groups))
			dep.Place("f", "A").Place("g2", "A").Place("g1", "B")
			s := mustSystem(t, groupProgram(nil, sc.body), Options{Deploy: dep, AckTimeout: 5 * time.Second, DisableDrivers: true})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.RunMain(ctx); err != nil {
				t.Fatal(err)
			}
			if err := s.Invoke(ctx, "f", "j"); err != nil {
				t.Fatal(err)
			}
			sink := s.junctionQuiet("g1", "j").Table()
			if n := sink.ApplyPending(); n != 3 {
				t.Fatalf("the sink absorbed %d updates, want 3", n)
			}
			if u, _ := sink.Prop("U"); !u {
				t.Fatal("the sink holds U false after assert; retract; assert")
			}
			mu.Lock()
			defer mu.Unlock()
			if len(groups) != 1 {
				t.Fatalf("the uplink carried %d groups, want 1", len(groups))
			}
			if _, members, ok := decodeGroup(groups[0]); !ok || len(members) != 3 || seqsOf(members) != 3 {
				t.Fatalf("the group decodes to %d members (ok=%v), want three plain ones", len(members), ok)
			}
		})
	}
}

// TestRunRangesOutOfOrderAckExactly: a range that arrives ahead of the
// frontier, or again, is acknowledged sequence by sequence — the frontier and
// each out-of-order sequence as an extra — and the range that closes the gap
// moves the frontier past both. Only an in-order range with nothing out of
// order ahead of it is passed at once.
func TestRunRangesOutOfOrderAckExactly(t *testing.T) {
	s := mustSystem(t, groupProgram(nil), Options{DisableDrivers: true})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var acks []string
	s.Net().Register("a::j", func(m compart.Message) { acks = append(acks, fmt.Sprint(ackSeqs(m.Payload))) })
	sink := s.junctionQuiet("g1", "j")
	run := func(lo uint64, ups ...remoteUpdate) {
		sink.handleMessage(compart.Message{From: "a::j", To: "g1::j", Kind: compart.KindGroup, Payload: appendGroup(nil, lo, ups)})
	}
	u := remoteUpdate{kind: compart.KindProp, key: "U", flag: true, n: 3}
	w := remoteUpdate{kind: compart.KindProp, key: "W", flag: true}
	run(4, u)    // ahead of the frontier
	run(4, u)    // again
	run(1, u)    // closes the gap
	run(1, u)    // a duplicate behind the frontier
	run(7, w, u) // in order
	want := "[[0 4 5 6] [0 4 5 6] [6] [6] [10]]"
	if got := fmt.Sprint(acks); got != want {
		t.Fatalf("acks %s, want %s", got, want)
	}
	sink.recvMu.Lock()
	tr := sink.recvFrom["a::j"]
	contig, oo := tr.contig, len(tr.oo)
	sink.recvMu.Unlock()
	if contig != 10 || oo != 0 {
		t.Fatalf("the sink's frontier is %d with %d sequences out of order, want 10 and none", contig, oo)
	}
}

// TestSeenRangesAreNotQueuedAgain: sequences a sink has seen — behind its
// frontier or held out of order — are acknowledged as before but not queued
// again, and a run that is partly seen keeps only its unseen updates. Two
// ranges of 3 delivered twice and then 4 new updates queue, absorb and trace
// 10 updates, one per sequence.
func TestSeenRangesAreNotQueuedAgain(t *testing.T) {
	ring := obsv.NewRingSink(64)
	s := mustSystem(t, groupProgram(nil), Options{DisableDrivers: true, Trace: ring})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Net().Register("a::j", func(compart.Message) {})
	sink := s.junctionQuiet("g1", "j")
	run := func(lo uint64, ups ...remoteUpdate) {
		sink.handleMessage(compart.Message{From: "a::j", To: "g1::j", Kind: compart.KindGroup, Payload: appendGroup(nil, lo, ups)})
	}
	u := remoteUpdate{kind: compart.KindProp, key: "U", flag: true, n: 3}
	w := remoteUpdate{kind: compart.KindProp, key: "W", flag: true}
	run(4, u)
	run(4, u)
	run(1, u)
	run(1, u)
	run(7, w, u)
	if q := sink.met.RemoteQueued.Load(); q != 10 {
		t.Fatalf("the sink queued %d updates, want 10", q)
	}
	if n := sink.Table().ApplyPending(); n != 10 {
		t.Fatalf("the sink absorbed %d updates, want 10", n)
	}
	var seqs []int64
	for _, e := range ring.Events() {
		if e.Kind == obsv.EvRemoteQueued {
			seqs = append(seqs, e.N)
		}
	}
	if got, want := fmt.Sprint(seqs), "[4 5 6 1 2 3 7 8 9 10]"; got != want {
		t.Fatalf("remote.queued traced sequences %s, want %s", got, want)
	}

	// A run of 3 whose middle sequence arrived ahead of it queues 2.
	run(12, w)
	run(11, u)
	if q := sink.met.RemoteQueued.Load(); q != 13 {
		t.Fatalf("the sink queued %d updates in all, want 13", q)
	}
	if n := sink.Table().ApplyPending(); n != 3 {
		t.Fatalf("the sink absorbed %d updates, want 3", n)
	}
}

// TestReplayedAssertDoesNotUndoLaterRetract: an `assert U` delivered again
// after the same sender's `retract U` leaves U false.
func TestReplayedAssertDoesNotUndoLaterRetract(t *testing.T) {
	s := mustSystem(t, groupProgram(nil), Options{DisableDrivers: true})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var acks []string
	s.Net().Register("a::j", func(m compart.Message) { acks = append(acks, fmt.Sprint(ackSeqs(m.Payload))) })
	sink := s.junctionQuiet("g1", "j")
	assert := appendGroup(nil, 1, []remoteUpdate{{kind: compart.KindProp, key: "U", flag: true}})
	retract := appendGroup(nil, 2, []remoteUpdate{{kind: compart.KindProp, key: "U", flag: false}})
	for _, p := range [][]byte{assert, retract, assert} {
		sink.handleMessage(compart.Message{From: "a::j", To: "g1::j", Kind: compart.KindGroup, Payload: p})
	}
	if got, want := fmt.Sprint(acks), "[[1] [2] [2]]"; got != want {
		t.Fatalf("acks %s, want %s", got, want)
	}
	sink.Table().ApplyPending()
	if u, _ := sink.Table().Prop("U"); u {
		t.Fatal("the replayed assert U undid the later retract U")
	}
}

// TestJitteredRunsAckExactly is TestJitteredLinkCompletesRangesOutOfOrder
// with runs: a par whose arms send runs of identical asserts, as par groups
// and as straight-line groups on their own goroutines, over a link that
// reorders them. Every range completes, the window's frontier reaches every
// sequence it issued, and the sink counts every update once.
func TestJitteredRunsAckExactly(t *testing.T) {
	u, w := dsl.Assert{Target: g(1), Prop: dsl.PR("U")}, dsl.Assert{Target: g(1), Prop: dsl.PR("W")}
	v := dsl.Retract{Target: g(1), Prop: dsl.PR("V")}
	p := groupProgram(nil, dsl.Par{dsl.Seq{u, u, u}, w, w, w, dsl.Seq{v, v}, w})
	const perFiring = 9
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
	win := s.window("f::j", "g1::j")
	win.mu.Lock()
	cum, next := win.cum, win.nextSeq
	win.mu.Unlock()
	if next != perFiring*rounds || cum != next {
		t.Fatalf("window issued %d sequences (want %d), frontier at %d", next, perFiring*rounds, cum)
	}
	if q := s.junctionQuiet("g1", "j").met.RemoteQueued.Load(); q != perFiring*rounds {
		t.Fatalf("the sink queued %d updates, want %d", q, perFiring*rounds)
	}
	reordered, queued := 0, 0
	var last int64
	for _, e := range ring.Events() {
		if e.Kind == obsv.EvRemoteQueued {
			queued++
			if e.N < last {
				reordered++
			}
			last = e.N
		}
	}
	if queued != perFiring*rounds {
		t.Fatalf("%d remote.queued events, want %d", queued, perFiring*rounds)
	}
	if reordered == 0 {
		t.Skip("the jitter never reordered two sends in this run")
	}
	t.Logf("%d arrivals overtook an earlier sequence", reordered)
}
