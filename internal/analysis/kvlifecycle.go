package analysis

import (
	"fmt"
	"sort"

	"csaw/internal/plan"
)

// KVLifecycle checks the lifecycle of every declared KV symbol, which needs
// the whole program's accesses: propositions and data written but never read,
// read but never written, declared but never used, and idx/subset choice
// state that is consulted but never assigned. A reference to a symbol its
// resolved target does not declare never gets here: plan.Compile rejects it.
var KVLifecycle = &Pass{
	Name: "kvlifecycle",
	Doc:  "KV lifecycle: unused, write-only and constant symbols",
	Run:  runKVLifecycle,
}

func runKVLifecycle(c *Context) []Diagnostic {
	var out []Diagnostic
	emit := func(sev Severity, pos, format string, args ...any) {
		out = append(out, Diagnostic{Severity: sev, Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
	for _, ji := range c.Juncs {
		pos := ji.FQ + "/decls"
		for _, p := range ji.Props() {
			reads, writes := ji.Reads["p:"+p], ji.Writes["p:"+p]
			switch {
			case len(reads) == 0 && len(writes) == 0:
				emit(SevWarning, pos, "proposition %q is declared but never read or written", p)
			case len(reads) == 0:
				if allLocalEffect(writes) {
					emit(SevWarning, pos, "proposition %q is only written as the local side-effect of remote assert/retract (e.g. at %s) and never read; the declaration is redundant", p, writes[0].Pos)
				} else if allIncoming(writes) {
					emit(SevWarning, pos, "proposition %q is written remotely (e.g. by %s) but never read here", p, writes[0].From)
				} else {
					emit(SevWarning, pos, "proposition %q is written but never read", p)
				}
			case len(writes) == 0:
				emit(SevWarning, pos, "proposition %q is read but never written: it stays %s forever", p, ttff(ji.PropInit(p)))
			}
		}
		for _, d := range ji.Data() {
			reads, writes := ji.Reads["d:"+d], ji.Writes["d:"+d]
			switch {
			case len(reads) == 0 && len(writes) == 0:
				emit(SevWarning, pos, "data %q is declared but never read or written", d)
			case len(writes) == 0:
				emit(SevError, pos, "data %q is read (e.g. at %s) but never written anywhere: it stays undef and restore/write will always fail", d, reads[0].Pos)
			case len(reads) == 0:
				emit(SevWarning, pos, "data %q is written but never read", d)
			}
		}
		for _, x := range ji.Idxs() {
			reads, writes := ji.Reads["i:"+x], ji.Writes["i:"+x]
			switch {
			case len(reads) == 0 && len(writes) == 0:
				emit(SevWarning, pos, "idx %q is declared but never assigned or consulted", x)
			case len(writes) == 0:
				emit(SevError, pos, "idx %q is consulted (e.g. at %s) but never assigned: it stays undef and resolution will fail", x, reads[0].Pos)
			case len(reads) == 0:
				emit(SevWarning, pos, "idx %q is assigned but never consulted", x)
			}
		}
		for _, s := range ji.Subsets() {
			reads, writes := ji.Reads["s:"+s], ji.Writes["s:"+s]
			switch {
			case len(reads) == 0 && len(writes) == 0:
				emit(SevWarning, pos, "subset %q is declared but never populated or consulted", s)
			case len(writes) == 0:
				emit(SevWarning, pos, "subset %q is consulted but never populated (SetSubset)", s)
			case len(reads) == 0:
				emit(SevWarning, pos, "subset %q is populated but never consulted", s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}

func allLocalEffect(ws []plan.Access) bool {
	for _, w := range ws {
		if w.Kind != plan.AccessLocalEffect {
			return false
		}
	}
	return len(ws) > 0
}

func allIncoming(ws []plan.Access) bool {
	for _, w := range ws {
		if w.Kind != plan.AccessIncoming {
			return false
		}
	}
	return len(ws) > 0
}

func ttff(v bool) string {
	if v {
		return "tt"
	}
	return "ff"
}
