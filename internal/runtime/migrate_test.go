package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/obsv"
)

// migProgram: f pushes asserts at g::main, whose guard never fires so the
// updates accumulate in the pending queue — observable state a migration
// must carry. A push asserts two propositions, so each of its updates is a
// queue entry of its own and the queue's length counts them. g also has an
// always-invokable tick junction for concurrent workload tests, and an aux
// junction so multi-junction transfers and mid-transfer aborts have something
// to fail on.
func migProgram() *dsl.Program {
	p := dsl.NewProgram()
	p.Type("srcT").Junction("push", dsl.Def(nil,
		dsl.Assert{Target: dsl.J("g", "main"), Prop: dsl.PR("Work")},
		dsl.Assert{Target: dsl.J("g", "main"), Prop: dsl.PR("Seen")}))
	tg := p.Type("dstT")
	tg.Junction("main", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Work", Init: false}, dsl.InitProp{Name: "Seen", Init: false},
			dsl.InitProp{Name: "Go", Init: false}),
		dsl.Skip{},
	).Guarded(formula.P("Go")))
	tg.Junction("tick", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Ticked", Init: false}),
		dsl.Assert{Prop: dsl.PR("Ticked")}))
	tg.Junction("aux", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Spare", Init: true}),
		dsl.Skip{}))
	p.Instance("f", "srcT").Instance("g", "dstT")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
	return p
}

// perPush is how many queue entries one push leaves at g::main.
const perPush = 2

func twoLocDeployment() (*Deployment, *compart.Network, *compart.Network) {
	netA := compart.NewNetwork(1)
	netB := compart.NewNetwork(2)
	dep := NewDeployment().AddLocation("A", netA).AddLocation("B", netB)
	dep.Place("f", "A").Place("g", "A")
	return dep, netA, netB
}

// TestMigrateMovesStateAndTraffic is the end-to-end happy path: pending
// updates survive the move, post-migration traffic reaches the new location
// through unchanged sender addressing, and the trace narrates the protocol
// in order.
func TestMigrateMovesStateAndTraffic(t *testing.T) {
	dep, netA, netB := twoLocDeployment()
	defer netA.Close()
	defer netB.Close()
	ring := obsv.NewRingSink(4096)
	// No drivers: a (re)started driver's first pass applies g::main's pending
	// queue at a moment the test does not control, and the queue length is
	// what the test reads. Driver restart is covered by
	// TestInvokeRetriesAcrossMigration and patterns' TestMigrationEquivalence.
	s := mustSystem(t, migProgram(), Options{Deploy: dep, AckTimeout: 10 * time.Second, Trace: ring, DisableDrivers: true})
	defer s.Close()
	for _, inst := range []string{"f", "g"} {
		if err := s.StartInstance(inst, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const before, after = 3, 2
	for i := 0; i < before; i++ {
		if err := s.Invoke(ctx, "f", "push"); err != nil {
			t.Fatalf("pre-migration push %d: %v", i, err)
		}
	}
	jOld, err := s.Junction("g", "main")
	if err != nil {
		t.Fatal(err)
	}
	if n := jOld.Table().PendingLen(); n != perPush*before {
		t.Fatalf("pre-migration pending = %d, want %d", n, perPush*before)
	}

	if err := s.MigrateInstance("g", "B"); err != nil {
		t.Fatal(err)
	}
	if loc := dep.LocationOf("g"); loc != "B" {
		t.Fatalf("placement says %q after migration, want B", loc)
	}
	jNew, err := s.Junction("g", "main")
	if err != nil {
		t.Fatal(err)
	}
	if jNew == jOld {
		t.Fatal("migration did not rebuild the junction")
	}
	if n := jNew.Table().PendingLen(); n != perPush*before {
		t.Fatalf("post-migration pending = %d, want %d (acknowledged updates lost)", n, perPush*before)
	}
	if v, err := jNew.Table().Prop("Go"); err != nil || v {
		t.Fatalf("prop Go = %v, %v after restore", v, err)
	}
	if v, err := s.junctionQuiet("g", "aux").Table().Prop("Spare"); err != nil || !v {
		t.Fatalf("aux prop Spare = %v, %v after restore", v, err)
	}

	bDeliveredBefore := netB.Stats().Delivered
	for i := 0; i < after; i++ {
		if err := s.Invoke(ctx, "f", "push"); err != nil {
			t.Fatalf("post-migration push %d: %v", i, err)
		}
	}
	if n := jNew.Table().PendingLen(); n != perPush*(before+after) {
		t.Fatalf("pending = %d after post-migration pushes, want %d", n, perPush*(before+after))
	}
	if netB.Stats().Delivered <= bDeliveredBefore {
		t.Fatal("post-migration updates never crossed to location B")
	}

	// The protocol narration must appear in order: begin, quiesce, one
	// transfer and one cutover per junction, resume; and no abort.
	var order []obsv.Kind
	counts := map[obsv.Kind]int{}
	for _, e := range ring.Events() {
		switch e.Kind {
		case obsv.EvMigrateBegin, obsv.EvMigrateQuiesce, obsv.EvMigrateTransfer,
			obsv.EvMigrateCutover, obsv.EvMigrateResume, obsv.EvMigrateAbort:
			order = append(order, e.Kind)
			counts[e.Kind]++
		}
	}
	if counts[obsv.EvMigrateAbort] != 0 {
		t.Fatalf("unexpected abort in trace: %v", order)
	}
	if counts[obsv.EvMigrateBegin] != 1 || counts[obsv.EvMigrateQuiesce] != 1 || counts[obsv.EvMigrateResume] != 1 {
		t.Fatalf("lifecycle counts off: %v", counts)
	}
	if counts[obsv.EvMigrateTransfer] != 3 || counts[obsv.EvMigrateCutover] != 3 {
		t.Fatalf("per-junction counts off (3 junctions): %v", counts)
	}
	rank := map[obsv.Kind]int{obsv.EvMigrateBegin: 0, obsv.EvMigrateQuiesce: 1,
		obsv.EvMigrateTransfer: 2, obsv.EvMigrateCutover: 3, obsv.EvMigrateResume: 4}
	for i := 1; i < len(order); i++ {
		if rank[order[i]] < rank[order[i-1]] {
			t.Fatalf("protocol events out of order: %v", order)
		}
	}
}

// TestMigrateStagesItsOwnCopyOfState: the destination keeps each state frame
// until the cutover, while the carrier that delivered it reuses its buffer
// for the next frame, as a TCP server reading frames in place does. The
// migration must still install the state as it was sent.
func TestMigrateStagesItsOwnCopyOfState(t *testing.T) {
	dep, netA, netB := twoLocDeployment()
	defer netA.Close()
	defer netB.Close()
	var buf []byte
	dep.Connect("A", "B", func(m compart.Message) error {
		buf = append(buf[:0], m.Payload...)
		m.Payload = buf
		err := netB.Send(m)
		clear(buf) // the carrier's next read overwrites the frame
		return err
	})
	// No drivers, as in TestMigrateMovesStateAndTraffic.
	s := mustSystem(t, migProgram(), Options{Deploy: dep, AckTimeout: 10 * time.Second, DisableDrivers: true})
	defer s.Close()
	for _, inst := range []string{"f", "g"} {
		if err := s.StartInstance(inst, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const pushes = 3
	for i := 0; i < pushes; i++ {
		if err := s.Invoke(ctx, "f", "push"); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := s.MigrateInstance("g", "B"); err != nil {
		t.Fatal(err)
	}
	if n := s.junctionQuiet("g", "main").Table().PendingLen(); n != perPush*pushes {
		t.Fatalf("pending = %d at g::main after the migration, want %d", n, perPush*pushes)
	}
	if v, err := s.junctionQuiet("g", "aux").Table().Prop("Spare"); err != nil || !v {
		t.Fatalf("aux prop Spare = %v, %v after the migration", v, err)
	}
}

// TestMigrateAbortOnTransferFailure: the destination becoming unreachable
// mid-transfer (uplink fails after the first state frame) must abort the
// migration, leave the source running with identical state, and leave no
// round behind to stage a late frame.
func TestMigrateAbortOnTransferFailure(t *testing.T) {
	dep, netA, netB := twoLocDeployment()
	defer netA.Close()
	defer netB.Close()
	var sent int
	dep.Connect("A", "B", func(m compart.Message) error {
		sent++
		if sent > 1 {
			return errors.New("destination unreachable")
		}
		return netB.Send(m)
	})
	ring := obsv.NewRingSink(4096)
	// No drivers, as in TestMigrateMovesStateAndTraffic.
	s := mustSystem(t, migProgram(), Options{Deploy: dep, AckTimeout: 2 * time.Second, Trace: ring, DisableDrivers: true})
	defer s.Close()
	for _, inst := range []string{"f", "g"} {
		if err := s.StartInstance(inst, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if err := s.Invoke(ctx, "f", "push"); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	jBefore, _ := s.Junction("g", "main")

	err := s.MigrateInstance("g", "B")
	if err == nil {
		t.Fatal("migration succeeded over a failing uplink")
	}
	if loc := dep.LocationOf("g"); loc != "A" {
		t.Fatalf("aborted migration moved the placement to %q", loc)
	}
	jAfter, _ := s.Junction("g", "main")
	if jAfter != jBefore {
		t.Fatal("aborted migration replaced the junction")
	}
	if n := jAfter.Table().PendingLen(); n != 3*perPush {
		t.Fatalf("pending = %d after abort, want %d", n, 3*perPush)
	}
	if s.round.Load() != nil {
		t.Fatal("a migration round outlived its abort")
	}
	// The source must still serve traffic.
	if err := s.Invoke(ctx, "f", "push"); err != nil {
		t.Fatalf("post-abort push: %v", err)
	}
	if n := jAfter.Table().PendingLen(); n != 4*perPush {
		t.Fatalf("pending = %d after post-abort push, want %d", n, 4*perPush)
	}
	aborts := 0
	for _, e := range ring.Events() {
		if e.Kind == obsv.EvMigrateAbort {
			aborts++
		}
	}
	if aborts != 1 {
		t.Fatalf("trace has %d migrate.abort events, want 1", aborts)
	}
}

// TestMigrateAbortsAfterAckWhenStateDoesNotDecode: the destination stages
// every frame and acks the round, but g::tick's state does not decode. In a
// one-process Deployment that is the only step between the ack and the
// cutover that can fail. The source, which has built the incarnations of
// g::aux and g::main by then, must abort and keep serving from the old
// junctions.
func TestMigrateAbortsAfterAckWhenStateDoesNotDecode(t *testing.T) {
	dep, netA, netB := twoLocDeployment()
	defer netA.Close()
	defer netB.Close()
	dep.Connect("A", "B", func(m compart.Message) error {
		if m.Key == "state:g::tick" {
			garbage := append([]byte(nil), m.Payload[:epochLen]...)
			m.Payload = append(garbage, 0xff, 0xff, 0xff, 0xff)
		}
		return netB.Send(m)
	})
	ring := obsv.NewRingSink(4096)
	// No drivers, as in TestMigrateMovesStateAndTraffic.
	s := mustSystem(t, migProgram(), Options{Deploy: dep, AckTimeout: 10 * time.Second, Trace: ring, DisableDrivers: true})
	defer s.Close()
	for _, inst := range []string{"f", "g"} {
		if err := s.StartInstance(inst, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Invoke(ctx, "f", "push"); err != nil {
		t.Fatal(err)
	}
	names := []string{"aux", "main", "tick"}
	before := make([]*Junction, len(names))
	for i, jn := range names {
		before[i] = s.junctionQuiet("g", jn)
	}

	err := s.MigrateInstance("g", "B")
	if err == nil || !strings.Contains(err.Error(), "decode g::tick") {
		t.Fatalf("migration error = %v, want a failure to decode g::tick", err)
	}
	if loc := dep.LocationOf("g"); loc != "A" {
		t.Fatalf("aborted migration moved the placement to %q", loc)
	}
	for i, jn := range names {
		j := s.junctionQuiet("g", jn)
		if j != before[i] {
			t.Fatalf("aborted migration replaced g::%s", jn)
		}
		if j.moved.Load() {
			t.Fatalf("aborted migration marked g::%s moved", jn)
		}
	}
	if s.round.Load() != nil {
		t.Fatal("a migration round outlived its abort")
	}
	// The source still serves traffic, into the old table.
	if err := s.Invoke(ctx, "f", "push"); err != nil {
		t.Fatalf("post-abort push: %v", err)
	}
	if n := before[1].Table().PendingLen(); n != 2*perPush {
		t.Fatalf("pending = %d at the old g::main after a post-abort push, want %d", n, 2*perPush)
	}
	counts := map[obsv.Kind]int{}
	for _, e := range ring.Events() {
		counts[e.Kind]++
	}
	if counts[obsv.EvMigrateAbort] != 1 || counts[obsv.EvMigrateCutover] != 0 {
		t.Fatalf("trace has %d migrate.abort and %d migrate.cutover events, want 1 and 0",
			counts[obsv.EvMigrateAbort], counts[obsv.EvMigrateCutover])
	}
}

// migrateAfterAbort migrates g to B twice over an A→B uplink that holds
// round 1's state frame for g::main, so round 1 aborts on its AckTimeout.
// One push precedes round 1 and three follow it. between runs after the
// abort with the held frame; in round 2, hook sends round 2's own g::main
// frame and the held one to B as the test wants. Round 2 must succeed and
// carry all eight pending entries.
func migrateAfterAbort(t *testing.T, between func(netB *compart.Network, held compart.Message), hook func(netB *compart.Network, held, own compart.Message) error) {
	t.Helper()
	dep, netA, netB := twoLocDeployment()
	defer netA.Close()
	defer netB.Close()
	var held *compart.Message
	dep.Connect("A", "B", func(m compart.Message) error {
		if m.Key != "state:g::main" {
			return netB.Send(m)
		}
		if held == nil {
			// The uplink keeps the frame past the call: it copies the lent
			// payload.
			m.Payload = bytes.Clone(m.Payload)
			held = &m
			return nil
		}
		return hook(netB, *held, m)
	})
	// No drivers, as in TestMigrateMovesStateAndTraffic.
	s := mustSystem(t, migProgram(), Options{Deploy: dep, AckTimeout: time.Second, DisableDrivers: true})
	defer s.Close()
	for _, inst := range []string{"f", "g"} {
		if err := s.StartInstance(inst, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	push := func(n int) {
		for i := 0; i < n; i++ {
			if err := s.Invoke(ctx, "f", "push"); err != nil {
				t.Fatalf("push: %v", err)
			}
		}
	}
	push(1)
	if err := s.MigrateInstance("g", "B"); err == nil {
		t.Fatal("round 1 succeeded without its g::main frame")
	}
	if s.round.Load() != nil {
		t.Fatal("a migration round outlived its abort")
	}
	if between != nil {
		between(netB, *held)
	}
	push(3)
	if err := s.MigrateInstance("g", "B"); err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if s.round.Load() != nil {
		t.Fatal("a migration round outlived its call")
	}
	j, err := s.Junction("g", "main")
	if err != nil {
		t.Fatal(err)
	}
	if n := j.Table().PendingLen(); n != 4*perPush {
		t.Fatalf("new incarnation holds %d pending entries, want %d: a stale snapshot was imported", n, 4*perPush)
	}
}

// TestMigrateStaleRoundIsIgnored: round 1's frame reaches the destination
// during round 2, ahead of round 2's own frame, which is delayed. It must
// neither complete round 2 nor be imported by it.
func TestMigrateStaleRoundIsIgnored(t *testing.T) { bubble(t, migrateStaleRoundIsIgnored) }

func migrateStaleRoundIsIgnored(t *testing.T) {
	var delayed sync.WaitGroup
	defer delayed.Wait()
	migrateAfterAbort(t, nil, func(netB *compart.Network, held, own compart.Message) error {
		if err := netB.Send(held); err != nil {
			return err
		}
		delayed.Add(1)
		time.AfterFunc(100*time.Millisecond, func() {
			defer delayed.Done()
			_ = netB.Send(own)
		})
		return nil
	})
}

// TestMigrateLateFrameAfterAbort: round 1's frame, released after round 1
// aborted, finds no round and is dropped; released again during round 2,
// behind round 2's own frame, it must not replace that frame.
func TestMigrateLateFrameAfterAbort(t *testing.T) { bubble(t, migrateLateFrameAfterAbort) }

func migrateLateFrameAfterAbort(t *testing.T) {
	migrateAfterAbort(t, func(netB *compart.Network, held compart.Message) {
		if err := netB.Send(held); err != nil {
			t.Fatal(err)
		}
	}, func(netB *compart.Network, held, own compart.Message) error {
		if err := netB.Send(own); err != nil {
			return err
		}
		return netB.Send(held)
	})
}

// TestMigrateManyJunctions: an instance of 65 junctions migrates in
// process, where each ack comes back inside the send that caused it, and
// every junction's state arrives.
func TestMigrateManyJunctions(t *testing.T) {
	const n = 65
	p := dsl.NewProgram()
	wide := p.Type("wideT")
	for i := 0; i < n; i++ {
		wide.Junction(fmt.Sprintf("j%02d", i), dsl.Def(
			dsl.Decls(dsl.InitProp{Name: "Mark", Init: false}),
			dsl.Assert{Prop: dsl.PR("Mark")}))
	}
	p.Instance("g", "wideT")
	p.SetMain(dsl.Start{Instance: "g"})
	netA, netB := compart.NewNetwork(1), compart.NewNetwork(2)
	defer netA.Close()
	defer netB.Close()
	dep := NewDeployment().AddLocation("A", netA).AddLocation("B", netB).Place("g", "A")
	s := mustSystem(t, p, Options{Deploy: dep, AckTimeout: 2 * time.Second})
	defer s.Close()
	if err := s.StartInstance("g", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i += 2 {
		if err := s.Invoke(ctx, "g", fmt.Sprintf("j%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MigrateInstance("g", "B"); err != nil {
		t.Fatal(err)
	}
	if loc := dep.LocationOf("g"); loc != "B" {
		t.Fatalf("placement says %q after migration, want B", loc)
	}
	for i := 0; i < n; i++ {
		j, err := s.Junction("g", fmt.Sprintf("j%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if v, err := j.Table().Prop("Mark"); err != nil || v != (i%2 == 0) {
			t.Fatalf("g::j%02d Mark = %v, %v after migration, want %v", i, v, err, i%2 == 0)
		}
	}
}

// TestMigrateDeltaCarriesCoalescedUpdate: an update that reaches the old
// table after its snapshot — a handler resolved before the park — and
// coalesces into the entry the snapshot ended with leaves the old queue's
// length unchanged. The delta pass must still find it and carry it to the new
// incarnation, whose drain then leaves the late value.
func TestMigrateDeltaCarriesCoalescedUpdate(t *testing.T) {
	dep, netA, netB := twoLocDeployment()
	defer netA.Close()
	defer netB.Close()
	var jOld *Junction
	late := false
	dep.Connect("A", "B", func(m compart.Message) error {
		// The transfer runs after the snapshot and before the cutover: the
		// window a late delivery lands in.
		if !late && m.Key == "state:"+jOld.FQName {
			late = true
			jOld.InjectProp("Seen", false)
		}
		return netB.Send(m)
	})
	// No drivers, as in TestMigrateMovesStateAndTraffic.
	s := mustSystem(t, migProgram(), Options{Deploy: dep, AckTimeout: 10 * time.Second, DisableDrivers: true})
	defer s.Close()
	for _, inst := range []string{"f", "g"} {
		if err := s.StartInstance(inst, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if err := s.Invoke(ctx, "f", "push"); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	var err error
	if jOld, err = s.Junction("g", "main"); err != nil {
		t.Fatal(err)
	}
	if err := s.MigrateInstance("g", "B"); err != nil {
		t.Fatal(err)
	}
	if !late {
		t.Fatal("the transfer never crossed the uplink")
	}
	if n := jOld.Table().PendingLen(); n != 2*perPush {
		t.Fatalf("old queue holds %d entries, want %d: the late retract was to coalesce into the last", n, 2*perPush)
	}
	jNew, err := s.Junction("g", "main")
	if err != nil {
		t.Fatal(err)
	}
	jNew.Table().ApplyPending()
	if v, _ := jNew.Table().Prop("Seen"); v {
		t.Fatal("Seen = true at the new incarnation: the late retract was lost at cutover")
	}
	if v, _ := jNew.Table().Prop("Work"); !v {
		t.Fatal("Work = false at the new incarnation: the snapshot's queue was lost")
	}
}

// TestMigrateValidation covers the refusal cases: unknown destination,
// pinned instance, stopped instance, and the same-location no-op.
func TestMigrateValidation(t *testing.T) {
	dep, netA, netB := twoLocDeployment()
	defer netA.Close()
	defer netB.Close()
	dep.Pin("f")
	s := mustSystem(t, migProgram(), Options{Deploy: dep})
	defer s.Close()
	if err := s.StartInstance("f", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.MigrateInstance("f", "nowhere"); err == nil {
		t.Fatal("migrated to an unknown location")
	}
	if err := s.MigrateInstance("f", "B"); err == nil {
		t.Fatal("migrated a pinned instance")
	}
	if err := s.MigrateInstance("g", "B"); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("migrating a stopped instance: %v, want ErrNotRunning", err)
	}
	if err := s.StartInstance("g", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.MigrateInstance("g", "A"); err != nil {
		t.Fatalf("same-location migration should be a no-op: %v", err)
	}
}

// TestInvokeRetriesAcrossMigration: application invocations racing a
// migration must never observe ErrMigrated — Invoke re-resolves the junction
// and completes against the new incarnation.
func TestInvokeRetriesAcrossMigration(t *testing.T) {
	dep, netA, netB := twoLocDeployment()
	defer netA.Close()
	defer netB.Close()
	s := mustSystem(t, migProgram(), Options{Deploy: dep, AckTimeout: 10 * time.Second})
	defer s.Close()
	for _, inst := range []string{"f", "g"} {
		if err := s.StartInstance(inst, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stop := make(chan struct{})
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Invoke(ctx, "g", "tick"); err != nil {
				errs <- fmt.Errorf("tick: %w", err)
				return
			}
		}
	}()
	for i, dest := range []string{"B", "A", "B"} {
		if err := s.MigrateInstance("g", dest); err != nil {
			t.Fatalf("migration %d to %s: %v", i, dest, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestStopAndCrashFailPendingWindowsFast: updates in flight toward an
// instance that is then stopped (or crashed) must fail with ErrPeerDown
// promptly — the window sweep, not the progress watchdog, resolves them.
func TestStopAndCrashFailPendingWindowsFast(t *testing.T) {
	for _, crash := range []bool{false, true} {
		name := "stop"
		if crash {
			name = "crash"
		}
		t.Run(name, func(t *testing.T) {
			net := compart.NewNetwork(1)
			defer net.Close()
			s := mustSystem(t, migProgram(), Options{Deploy: NewDeployment().AddLocation("local", net), AckTimeout: 30 * time.Second})
			defer s.Close()
			for _, inst := range []string{"f", "g"} {
				if err := s.StartInstance(inst, nil); err != nil {
					t.Fatal(err)
				}
			}
			// The update takes 300ms to arrive; the instance dies at ~50ms,
			// with the ack timeout far out of reach.
			net.SetLink("f::push", "g::main", compart.LinkConfig{Latency: 300 * time.Millisecond})
			done := make(chan error, 1)
			go func() {
				done <- s.Invoke(context.Background(), "f", "push")
			}()
			time.Sleep(50 * time.Millisecond)
			start := time.Now()
			if crash {
				s.CrashInstance("g")
			} else if err := s.StopInstance("g"); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, ErrPeerDown) {
					t.Fatalf("in-flight update failed with %v, want ErrPeerDown", err)
				}
				if e := time.Since(start); e > 5*time.Second {
					t.Fatalf("window failure took %v after %s", e, name)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("in-flight update still pending 10s after %s", name)
			}
		})
	}
}

// TestCloseAbandonsDriverMidSend: a guarded junction's driver is inside an
// assert toward a partitioned peer, whose ack will never come. Stopping the
// sender must not wait that out (it took 2 × AckTimeout): Close returns at
// once, no waiter is left behind, and the abandoned scheduling is not recorded
// as a failure of the body.
func TestCloseAbandonsDriverMidSend(t *testing.T) {
	p := dsl.NewProgram()
	p.Type("srcT").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "Go", Init: false}),
		dsl.Retract{Prop: dsl.PR("Go")}, dsl.Assert{Target: dsl.J("g", "j"), Prop: dsl.PR("U")},
	).Guarded(formula.P("Go")))
	p.Type("sinkT").Junction("j", dsl.Def(dsl.Decls(dsl.InitProp{Name: "U", Init: false})))
	p.Instance("f", "srcT").Instance("g", "sinkT")
	p.SetMain(dsl.Par{dsl.Start{Instance: "f"}, dsl.Start{Instance: "g"}})
	s := mustSystem(t, p, Options{AckTimeout: 30 * time.Second})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The partition: g's endpoint swallows what arrives and acknowledges nothing.
	s.Net().Register("g::j", func(compart.Message) {})
	s.junctionQuiet("f", "j").InjectProp("Go", true)
	for deadline := time.Now().Add(5 * time.Second); s.pendingAcks("f::j", "g::j") != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the driver never got as far as awaiting the ack")
		}
	}
	// The sender goes first: stopped after g, g's stop would have failed the
	// window for it.
	start := time.Now()
	if err := s.StopInstance("f"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if e := time.Since(start); e > 200*time.Millisecond {
		t.Errorf("stopping the sender and Close took %v with a driver mid-send", e)
	}
	if n := s.pendingAcks("f::j", "g::j"); n != 0 {
		t.Errorf("%d updates still awaiting acks after Close", n)
	}
	if err := s.LastDriverError("f::j"); err != nil {
		t.Errorf("the abandoned scheduling was recorded as a body failure: %v", err)
	}
}

// TestDeploymentListingsSorted pins the deterministic ordering of the
// deployment's listing accessors regardless of insertion order.
func TestDeploymentListingsSorted(t *testing.T) {
	cases := []struct {
		name  string
		locs  []string
		insts []string
	}{
		{"already-sorted", []string{"a", "b", "c"}, []string{"x", "y"}},
		{"reverse", []string{"c", "b", "a"}, []string{"y", "x"}},
		{"interleaved", []string{"edge", "core", "dmz"}, []string{"Fnt", "Bck2", "Bck1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDeployment()
			for _, l := range tc.locs {
				d.AddLocation(l, nil)
			}
			for i, inst := range tc.insts {
				d.Place(inst, tc.locs[i%len(tc.locs)])
			}
			locs := d.Locations()
			for i := 1; i < len(locs); i++ {
				if locs[i-1] >= locs[i] {
					t.Fatalf("Locations not sorted: %v", locs)
				}
			}
			if len(locs) != len(tc.locs) {
				t.Fatalf("Locations = %v, want %d entries", locs, len(tc.locs))
			}
			insts := d.Instances()
			for i := 1; i < len(insts); i++ {
				if insts[i-1] >= insts[i] {
					t.Fatalf("Instances not sorted: %v", insts)
				}
			}
			if len(insts) != len(tc.insts) {
				t.Fatalf("Instances = %v, want %d entries", insts, len(tc.insts))
			}
		})
	}
}

// TestInvokeResolvesWithoutSystemLock holds System.mu, the lock instance
// lifecycle changes take, while the application resolves and invokes
// junctions: the name lookup reads copy-on-write maps and must not wait for
// it. Across a migration the lookup finds the new incarnation the cutover
// published.
func TestInvokeResolvesWithoutSystemLock(t *testing.T) {
	dep, netA, netB := twoLocDeployment()
	defer netA.Close()
	defer netB.Close()
	s := mustSystem(t, migProgram(), Options{Deploy: dep, AckTimeout: 10 * time.Second})
	defer s.Close()
	for _, inst := range []string{"f", "g"} {
		if err := s.StartInstance(inst, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	underLock := func(what string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		s.mu.Lock()
		go func() { done <- f() }()
		select {
		case err := <-done:
			s.mu.Unlock()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			s.mu.Unlock()
			t.Fatalf("%s waited for the system lock", what)
		}
	}
	var before *Junction
	underLock("resolve and invoke", func() (err error) {
		if before, err = s.Junction("g", "tick"); err != nil {
			return err
		}
		if !s.InstanceRunning("g") {
			return errors.New("g not running")
		}
		if _, err := s.Junction("g", "nope"); err == nil {
			return errors.New("an undeclared junction resolved")
		}
		return s.Invoke(ctx, "g", "tick")
	})
	if err := s.MigrateInstance("g", "B"); err != nil {
		t.Fatal(err)
	}
	underLock("resolve and invoke after the migration", func() error {
		after, err := s.Junction("g", "tick")
		if err != nil {
			return err
		}
		if after == before || after.moved.Load() {
			return errors.New("the lookup found the retired incarnation")
		}
		return s.Invoke(ctx, "g", "tick")
	})
	if ok, err := func() (bool, error) {
		j, err := s.Junction("g", "tick")
		if err != nil {
			return false, err
		}
		return j.Table().Prop("Ticked")
	}(); err != nil || !ok {
		t.Fatalf("Ticked at the new incarnation = %v, %v; want true", ok, err)
	}
}
