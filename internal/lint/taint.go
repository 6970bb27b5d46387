package lint

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// The determinism-taint analyzer ([taint]) closes the wrapper-function
// escape hatch of the determinism rule: a helper defined in a
// NON-deterministic package that transitively reaches time.Now (or any
// wall-clock function) or a global math/rand draw is flagged at every
// call site inside a deterministic package. The deterministic file
// itself names no sink, just an innocent-looking helper call.
//
// Taint semantics, chosen so each root cause is reported exactly once:
//
//   - Roots are functions in non-deterministic module packages whose
//     bodies reference an unsuppressed sink, called or not: a helper
//     that returns time.Now as a value leaks the clock as surely as one
//     that calls it. Sinks under a //dwrlint:allow wallclock/globalrand
//     directive never seed taint — the directive asserts the site is
//     behaviorally harmless, and propagating from it would force every
//     caller to re-annotate.
//   - Sinks inside deterministic packages don't seed taint either: the
//     determinism analyzer already flags them in place.
//   - Taint flows backward over static call edges through any module
//     function. A finding is emitted where a deterministic package calls
//     a tainted function that lives in a non-deterministic package;
//     tainted det-package intermediaries are not re-reported at their
//     own call sites (their bodies already carry the finding).
//
// Only statically resolvable edges exist in the graph (direct calls,
// concrete-receiver methods); interface dispatch and function values are
// invisible, a documented soundness limit shared with every call-graph
// linter that stops short of whole-program pointer analysis.

// taintInfo is one tainted function's shortest witness chain to a sink.
type taintInfo struct {
	next *types.Func // next hop toward the sink (nil at the root)
	sink string      // e.g. "time.Now" (set at the root)
}

func analyzeTaintModule(m *module, report moduleReport) {
	if m.funcs == nil {
		return
	}
	// Reverse call edges restricted to module-internal callees.
	callers := map[*types.Func][]*funcFacts{}
	var order []*types.Func
	for _, ff := range m.funcs {
		order = append(order, ff.obj)
		for _, c := range ff.calls {
			if _, ok := m.funcs[c.callee]; ok {
				callers[c.callee] = append(callers[c.callee], ff)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return funcKey(order[i]) < funcKey(order[j]) })

	// Seed from non-deterministic packages' unsuppressed sinks.
	tainted := map[*types.Func]taintInfo{}
	var frontier []*types.Func
	for _, obj := range order {
		ff := m.funcs[obj]
		if deterministic[ff.pkg.unit] {
			continue
		}
		for _, s := range ff.sinks {
			if s.allowed {
				continue
			}
			tainted[obj] = taintInfo{sink: s.name}
			frontier = append(frontier, obj)
			break
		}
	}
	// Breadth-first propagation to callers gives shortest witness paths.
	for len(frontier) > 0 {
		var next []*types.Func
		for _, f := range frontier {
			cs := callers[f]
			sort.Slice(cs, func(i, j int) bool { return funcKey(cs[i].obj) < funcKey(cs[j].obj) })
			for _, caller := range cs {
				if _, seen := tainted[caller.obj]; seen {
					continue
				}
				tainted[caller.obj] = taintInfo{next: f, sink: tainted[f].sink}
				next = append(next, caller.obj)
			}
		}
		frontier = next
	}

	// Report deterministic-package call sites whose callee is a tainted
	// function living in a non-deterministic package.
	for _, obj := range order {
		ff := m.funcs[obj]
		if !deterministic[ff.pkg.unit] {
			continue
		}
		for _, c := range ff.calls {
			callee, ok := m.funcs[c.callee]
			if !ok || deterministic[callee.pkg.unit] {
				continue
			}
			ti, bad := tainted[c.callee]
			if !bad {
				continue
			}
			report(ff.file, c.pos, "taint", c.callee.Name(), fmt.Sprintf(
				"call of %s in deterministic package %s transitively reaches %s (%s): thread virtual time or a seeded source through the helper, or annotate //dwrlint:allow taint <why>",
				funcDisplay(c.callee), ff.pkg.unit, ti.sink, witnessPath(m, c.callee, tainted)))
		}
	}
}

// witnessPath renders the shortest chain "pkg.F -> pkg.G -> time.Now".
func witnessPath(m *module, f *types.Func, tainted map[*types.Func]taintInfo) string {
	var hops []string
	for f != nil {
		hops = append(hops, funcDisplay(f))
		ti := tainted[f]
		if ti.next == nil {
			hops = append(hops, ti.sink)
			break
		}
		f = ti.next
	}
	return strings.Join(hops, " -> ")
}

// funcDisplay renders pkg.Func or pkg.(Recv).Method for messages.
func funcDisplay(f *types.Func) string {
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Name() + "."
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pkg + "(" + n.Obj().Name() + ")." + f.Name()
		}
	}
	return pkg + f.Name()
}

// funcKey is a stable sort key for deterministic graph walks.
func funcKey(f *types.Func) string {
	p := ""
	if f.Pkg() != nil {
		p = f.Pkg().Path()
	}
	return p + "\x00" + f.FullName()
}
