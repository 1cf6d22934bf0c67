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
)

// TestLossyLinkDeliversGroupsWholeOrNot: a group is one message, so a lossy
// link between two in-process locations delivers it whole or loses it whole.
// Over 500 firings each of a straight-line `write d; assert U` and of a
// 16-arm par of asserts, with a third of the group messages dropped, the sink
// never holds a firing's U without that firing's d, queues 0 or every member
// of each firing, and every ledger balances: each network conserves and no
// update is left awaiting its ack.
func TestLossyLinkDeliversGroupsWholeOrNot(t *testing.T) {
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
