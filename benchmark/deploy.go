package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"csaw/internal/compart"
	"csaw/internal/dsl"
	"csaw/internal/formula"
	"csaw/internal/patterns"
	"csaw/internal/runtime"
)

// ackTimeout bounds an unacknowledged remote update; like hookTimeout it is
// far above anything the workloads produce.
const ackTimeout = 10 * time.Second

// system is one running DSL architecture with everything needed to read its
// counters and tear it down.
type system struct {
	sys     *runtime.System
	nets    []*compart.Network         // one per location
	uplinks []*compart.ReconnectClient // TCP deployments only
	closers []func()                   // run in reverse order
}

func (s *system) close() {
	// Closing under a back-end still waiting for its last acknowledgment
	// would hold Close for the whole otherwise[t] deadline.
	s.quiesce()
	s.sys.Close()
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// quiesce waits until no frame has moved for a millisecond (the last
// request's trailing acknowledgments have landed) and reports whether every
// location's and uplink's counters then add up.
func (s *system) quiesce() bool {
	deadline := time.Now().Add(2 * time.Second)
	moved := func() uint64 {
		msgs, _, _, _ := s.wire()
		return s.netSends() + msgs
	}
	for {
		before := moved()
		time.Sleep(time.Millisecond)
		ok := moved() == before
		for _, n := range s.nets {
			ok = ok && n.Stats().Conserved()
		}
		for _, u := range s.uplinks {
			st := u.Stats()
			ok = ok && st.Enqueued == st.Sent+st.Dropped
		}
		if ok || time.Now().After(deadline) {
			return ok
		}
	}
}

// conservedErr is quiesce as an oracle assertion.
func (s *system) conservedErr() error {
	if !s.quiesce() {
		return errors.New("transport counters not conserved")
	}
	return nil
}

// netSends sums the frames handed to any location's network.
func (s *system) netSends() uint64 {
	var n uint64
	for _, nw := range s.nets {
		n += nw.Stats().Sent
	}
	return n
}

// wire sums the uplink clients' counters; all zero without TCP.
func (s *system) wire() (msgs, batches, batched, dropped uint64) {
	for _, u := range s.uplinks {
		st := u.Stats()
		msgs += st.Sent
		batches += st.BatchesSent
		batched += st.MsgsPerBatch.Sum
		dropped += st.Dropped
	}
	return
}

// options builds the runtime options of a deployment; the sink is installed
// in the traced pass only.
func options(dep *runtime.Deployment, sink *eventSink) runtime.Options {
	o := runtime.Options{Deploy: dep, AckTimeout: ackTimeout}
	if sink != nil {
		o.Trace = sink
	}
	return o
}

// startLocal runs prog on one in-process location.
func startLocal(prog *dsl.Program, sink *eventSink) (*system, error) {
	nw := compart.NewNetwork(1)
	sys, err := runtime.New(prog, options(runtime.NewDeployment().AddLocation("A", nw), sink))
	if err != nil {
		nw.Close()
		return nil, err
	}
	s := &system{sys: sys, nets: []*compart.Network{nw}}
	if err := sys.RunMain(context.Background()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startTCP runs prog on two locations, each a compart.Network behind a
// loopback TCP server, joined by one reconnecting client per direction with
// no injected latency. atB lists the instances placed at B; the rest live at
// A. With a tracer the uplinks are wrapped in spans.
func startTCP(prog *dsl.Program, atB []string, sink *eventSink, tr *tracer) (*system, error) {
	s := &system{}
	fail := func(err error) (*system, error) {
		for i := len(s.closers) - 1; i >= 0; i-- {
			s.closers[i]()
		}
		return nil, err
	}
	addr := map[string]string{}
	for i, loc := range []string{"A", "B"} {
		nw := compart.NewNetwork(int64(i + 1))
		s.nets = append(s.nets, nw)
		s.closers = append(s.closers, nw.Close)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		srv := compart.ServeTCP(nw, l)
		s.closers = append(s.closers, srv.Close)
		addr[loc] = srv.Addr().String()
	}
	dep := runtime.NewDeployment().AddLocation("A", s.nets[0]).AddLocation("B", s.nets[1])
	for _, dir := range [][2]string{{"A", "B"}, {"B", "A"}} {
		c := compart.DialReconnect(addr[dir[1]], compart.ReconnectConfig{QueueSize: 4096})
		s.uplinks = append(s.uplinks, c)
		s.closers = append(s.closers, func() { _ = c.Close() })
		dep.Connect(dir[0], dir[1], tracedUplink(c.Send, tr))
	}
	for _, inst := range prog.InstanceNames() {
		dep.Place(inst, "A")
	}
	for _, inst := range atB {
		dep.Place(inst, "B")
	}
	sys, err := runtime.New(prog, options(dep, sink))
	if err != nil {
		return fail(err)
	}
	s.sys = sys
	for _, inst := range prog.InstanceNames() {
		if err := sys.StartInstance(inst, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// frameBytes is the size of a message's frame on the wire before batching:
// the 4-byte length prefix, kind and flag, three 2-byte-prefixed strings and
// the 4-byte-prefixed payload (compart.AppendMessage's layout).
func frameBytes(m compart.Message) int {
	return 4 + 2 + 6 + len(m.From) + len(m.To) + len(m.Key) + 4 + len(m.Payload)
}

func tracedUplink(send runtime.Uplink, tr *tracer) runtime.Uplink {
	if tr == nil {
		return send
	}
	return func(m compart.Message) error {
		id := tr.begin(spUplink, tr.clientOf(m.From, m.To), -1)
		err := send(m)
		tr.endSized(id, frameBytes(m))
		return err
	}
}

// Names of the fan-out architecture.
const (
	fanoutWidth = 96 // concurrent asserts per invocation
	sinkInst    = "sink"
	sinkJn      = "main"
	pushJn      = "push"
)

func sourceInst(i int) string { return fmt.Sprintf("s%d", i) }

// fanoutProgram is n sources whose push junction asserts one proposition at
// the sink fanoutWidth times in parallel. The sink's guard never becomes
// true, so arriving updates only queue: the workload prices the remote-update
// plane, not sink scheduling.
func fanoutProgram(n int) *dsl.Program {
	p := dsl.NewProgram()
	arms := make(dsl.Par, fanoutWidth)
	for i := range arms {
		arms[i] = dsl.Assert{Target: dsl.J(sinkInst, sinkJn), Prop: dsl.PR("U")}
	}
	p.Type("src").Junction(pushJn, dsl.Def(nil, arms))
	p.Type("sinkT").Junction(sinkJn, dsl.Def(
		dsl.Decls(dsl.InitProp{Name: "U", Init: false}, dsl.InitProp{Name: "Go", Init: false}),
		dsl.Skip{},
	).Guarded(formula.P("Go")))
	starts := dsl.Par{}
	for i := 0; i < n; i++ {
		p.Instance(sourceInst(i), "src")
		starts = append(starts, dsl.Start{Instance: sourceInst(i)})
	}
	p.Instance(sinkInst, "sinkT")
	p.SetMain(append(starts, dsl.Start{Instance: sinkInst}))
	return p
}

// backNames lists Bck1..BckN.
func backNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = patterns.BackInstance(i)
	}
	return out
}

// migrator moves one instance back and forth between the two locations on a
// fixed period while a DSL slice runs.
type migrator struct {
	sys    *runtime.System
	tr     *tracer
	inst   string
	period time.Duration

	at string // the instance's current location

	done, errs atomic.Uint64
	lastErr    atomic.Value

	stop chan struct{}
	wg   sync.WaitGroup
}

func (m *migrator) start() {
	m.stop = make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(m.period)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			dest := "A"
			if m.at == "A" {
				dest = "B"
			}
			id := m.tr.begin(spMigrate, 0, -1)
			err := m.sys.MigrateInstance(m.inst, dest)
			m.tr.end(id)
			if err != nil {
				m.errs.Add(1)
				m.lastErr.Store(err)
			} else {
				m.done.Add(1)
				m.at = dest
			}
		}
	}()
}

func (m *migrator) halt() {
	close(m.stop)
	m.wg.Wait()
}

func (m *migrator) err() error {
	if n := m.errs.Load(); n > 0 {
		e, _ := m.lastErr.Load().(error)
		return errors.Join(fmt.Errorf("%d of %d migrations failed", n, n+m.done.Load()), e)
	}
	return nil
}
