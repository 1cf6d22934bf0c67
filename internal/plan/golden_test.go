package plan_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"csaw/internal/patterns"
	"csaw/internal/plan"
)

var update = flag.Bool("update", false, "rewrite testdata/lowered.golden from the current lowering")

// TestLoweredPlanGolden freezes what plan.Compile decides for every catalogue
// and negative entry: guard and wait read-sets with their origins, each op's
// position, kind and remote flag, the step cut of every block, each
// transaction's prefix write-sets, and the access facts (reads, writes,
// started instances, remotely read propositions).
// A change to the lowering that moves a line must say why; regenerate with
// go test ./internal/plan -run TestLoweredPlanGolden -update.
func TestLoweredPlanGolden(t *testing.T) {
	var buf bytes.Buffer
	entries := append(patterns.Catalogue(), patterns.Negatives()...)
	for _, e := range entries {
		pp, err := plan.Compile(e.Build())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&buf, "== %s\n", e.Name)
		dumpProgram(&buf, pp)
	}
	const path = "testdata/lowered.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("lowered plans drifted from %s; diff the output of -update against it", path)
	}
}

var kindNames = map[plan.Kind]string{
	plan.OpInvalid: "invalid", plan.OpSkip: "skip", plan.OpSignal: "signal",
	plan.OpProp: "prop", plan.OpWrite: "write", plan.OpWait: "wait",
	plan.OpVerify: "verify", plan.OpHost: "host", plan.OpSave: "save",
	plan.OpRestore: "restore", plan.OpKeep: "keep", plan.OpStart: "start",
	plan.OpStop: "stop", plan.OpIdxAssign: "idx", plan.OpIf: "if",
	plan.OpCase: "case", plan.OpPar: "par", plan.OpSeq: "seq",
	plan.OpScope: "scope", plan.OpTxn: "txn", plan.OpOtherwise: "otherwise",
}

func dumpProgram(buf *bytes.Buffer, pp *plan.Program) {
	fqs := make([]string, 0, len(pp.Junctions))
	for fq := range pp.Junctions {
		fqs = append(fqs, fq)
	}
	sort.Strings(fqs)
	for _, fq := range fqs {
		pj := pp.Junctions[fq]
		fmt.Fprintf(buf, "junction %s\n", fq)
		if pj.Guard != nil {
			fmt.Fprintf(buf, "  guard %s\n", readSet(*pj.Guard))
		}
		var remote []string
		for _, k := range pj.Props() {
			if pj.ReadRemotely(k) {
				remote = append(remote, k)
			}
		}
		fmt.Fprintf(buf, "  read-remotely %v\n", remote)
		dumpAccesses(buf, "reads", pj.Reads)
		dumpAccesses(buf, "writes", pj.Writes)
		dumpBlock(buf, pj.Body, "  ")
	}
	var started []string
	for inst := range pp.Started {
		started = append(started, inst)
	}
	sort.Strings(started)
	fmt.Fprintf(buf, "started %v\n", started)
}

func dumpAccesses(buf *bytes.Buffer, what string, m map[string][]plan.Access) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(buf, "  %s %s:", what, k)
		for _, a := range m[k] {
			fmt.Fprintf(buf, " {%s %d %q %q}", a.Pos, a.Kind, a.From, a.Class)
		}
		buf.WriteByte('\n')
	}
}

func readSet(rs plan.ReadSet) string {
	var os []string
	for _, o := range rs.Origins {
		os = append(os, fmt.Sprintf("{%q %q r=%t l=%t i=%q}", o.Key, o.Junction, o.Junction != "" || o.Liveness, o.Liveness, o.IdxFamily))
	}
	return fmt.Sprintf("props=%v data=%v remote=%t idx=%t origins=[%s]",
		rs.Props, rs.Data, rs.Remote, rs.Idx, strings.Join(os, " "))
}

func writeSet(ws plan.WriteSet) string {
	return fmt.Sprintf("{props=%v data=%v}", ws.Props, ws.Data)
}

func dumpBlock(buf *bytes.Buffer, b *plan.Block, indent string) {
	cut := make([]int, len(b.Steps))
	for i, s := range b.Steps {
		cut[i] = len(s)
	}
	fmt.Fprintf(buf, "%ssteps %v\n", indent, cut)
	for _, o := range b.Ops {
		dumpOp(buf, o, indent)
	}
}

func dumpOp(buf *bytes.Buffer, o *plan.Op, indent string) {
	fmt.Fprintf(buf, "%s%s %s remote=%t\n", indent, o.Pos, kindNames[o.Kind], o.Remote)
	in := indent + "  "
	switch o.Kind {
	case plan.OpWait:
		fmt.Fprintf(buf, "%swait static=%t %s\n", in, o.Wait.Static, readSet(o.Wait.Reads))
	case plan.OpIf:
		dumpOp(buf, o.Then, in)
		if o.Else != nil {
			dumpOp(buf, o.Else, in)
		}
	case plan.OpCase:
		for _, a := range o.Case.Arms {
			dumpBlock(buf, a.Body, in)
		}
		dumpBlock(buf, o.Case.Otherwise, in)
	case plan.OpPar:
		arms := o.Arms
		if o.N > 0 {
			arms = arms[:len(arms)/o.N]
		}
		flat := make([]string, len(o.Flat))
		for i, a := range o.Flat {
			flat[i] = a.Pos
		}
		fmt.Fprintf(buf, "%sn=%d flat=%v\n", in, o.N, flat)
		for _, a := range arms {
			dumpOp(buf, a, in)
		}
	case plan.OpSeq, plan.OpScope:
		dumpBlock(buf, o.Body, in)
	case plan.OpTxn:
		for k, w := range o.Wrote {
			fmt.Fprintf(buf, "%swrote[%d] %s\n", in, k, writeSet(w))
		}
		dumpBlock(buf, o.Body, in)
	case plan.OpOtherwise:
		dumpOp(buf, o.Try, in)
		dumpOp(buf, o.Handler, in)
	}
}
