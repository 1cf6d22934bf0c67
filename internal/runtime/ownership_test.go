package runtime

import (
	"bytes"
	"context"
	"testing"
	"time"

	"csaw/internal/dsl"
	"csaw/internal/formula"
)

// dataJunction is one instance "x" whose junction "j" declares data d and
// proposition P and runs body.
func dataJunction(t *testing.T, body ...dsl.Expr) (*System, *Junction) {
	t.Helper()
	p := dsl.NewProgram()
	p.Type("t").Junction("j", dsl.Def(
		dsl.Decls(dsl.InitData{Name: "d"}, dsl.InitProp{Name: "P", Init: false}),
		body...,
	))
	p.Instance("x", "t")
	p.SetMain(dsl.Start{Instance: "x"})
	s := mustSystem(t, p, Options{})
	if err := s.RunMain(context.Background()); err != nil {
		t.Fatal(err)
	}
	j, err := s.Junction("x", "j")
	if err != nil {
		t.Fatal(err)
	}
	return s, j
}

// TestRestoreSinkKeepsItsLoanWhileAWaitAdmits: a restore sink in one par arm
// reads the table's own bytes of d while the other arm's wait admits writes
// to d. The admitted values go to other buffers: the sink's bytes stay what
// it was lent for the whole call.
func TestRestoreSinkKeepsItsLoanWhileAWaitAdmits(t *testing.T) {
	const first = "the value restore lends"
	lent, proceed := make(chan struct{}), make(chan struct{})
	var seen []byte
	s, j := dataJunction(t, dsl.Par{
		dsl.Restore{Data: "d", Into: func(_ dsl.HostCtx, b []byte) error {
			close(lent)
			<-proceed
			seen = append(seen, b...)
			return nil
		}},
		dsl.Wait{Data: []string{"d"}, Cond: formula.P("P")},
	})
	// Delivered before the request: the scheduling applies it into a buffer
	// the table owns and may rewrite.
	j.InjectData("d", []byte(first))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Invoke(ctx, "x", "j") }()
	select {
	case <-lent:
	case <-ctx.Done():
		t.Fatal("the restore sink never ran")
	}
	waitUntil(t, 5*time.Second, "the wait to block", func() bool { return j.met.WaitsArmed.Load() == 1 })
	// As long as the lent value, so each would fit its buffer.
	for _, v := range []string{"admitted value number 1", "admitted value number 2"} {
		j.InjectData("d", []byte(v))
		if n := j.Table().PendingLen(); n != 0 {
			t.Fatalf("pending = %d: the wait did not admit the write", n)
		}
	}
	close(proceed)
	j.InjectProp("P", true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(seen) != first {
		t.Fatalf("the sink read %q, want the %q it was lent", seen, first)
	}
	if got, err := j.Table().Data("d"); err != nil || string(got) != "admitted value number 2" {
		t.Fatalf("d = %q, %v after the request, want the last admitted value", got, err)
	}
}

// TestInjectDataCallerKeepsItsSlice: InjectData lends its payload for the
// call, so the caller may overwrite it at once — whether the write queues
// for the next scheduling or a blocked wait admits it.
func TestInjectDataCallerKeepsItsSlice(t *testing.T) {
	var seen []byte
	s, j := dataJunction(t,
		dsl.Restore{Data: "d", Into: func(_ dsl.HostCtx, b []byte) error {
			seen = append(seen[:0], b...)
			return nil
		}},
		dsl.Wait{Data: []string{"d"}, Cond: formula.P("P")},
		dsl.Restore{Data: "d", Into: func(_ dsl.HostCtx, b []byte) error {
			seen = append(seen[:0], b...)
			return nil
		}},
	)
	payload := []byte("queued payload")
	j.InjectData("d", payload)
	copy(payload, "overwritten!!!")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Invoke(ctx, "x", "j") }()
	waitUntil(t, 5*time.Second, "the wait to block", func() bool { return j.met.WaitsArmed.Load() == 1 })
	if !bytes.Equal(seen, []byte("queued payload")) {
		t.Fatalf("the first restore read %q, want %q", seen, "queued payload")
	}
	payload = []byte("admitted payload")
	j.InjectData("d", payload)
	copy(payload, "overwritten too!")
	j.InjectProp("P", true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seen, []byte("admitted payload")) {
		t.Fatalf("the second restore read %q, want %q", seen, "admitted payload")
	}
}
