package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// The determinism analyzer guards the packages whose outputs must be a
// pure function of their seeds. Two rule ids:
//
//   - [wallclock]: any reference to a wall-clock or real-sleep function
//     of package time, called or not, qualified or dot-imported.
//     Deterministic packages express time as virtual ticks (query
//     ticks, simulated milliseconds); a single time.Now() makes a replay
//     diverge between runs and machines.
//   - [globalrand]: any reference to a top-level math/rand function
//     that draws from (or reseeds) the global source. The global source
//     is process-wide shared state: it makes results depend on
//     everything else that has drawn from it, including test ordering
//     and parallelism.
//
// Legitimately wall-clock sites (e.g. reporting how long a build took,
// which is measurement, not behavior) carry //dwrlint:allow wallclock
// annotations with a justification.

// wallclockFuncs are the package time functions that read the real
// clock or block on it.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the math/rand top-level functions that draw from
// (or reseed) the shared global source. New/NewSource are constructors,
// policed by the seed-plumbing analyzer instead.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
}

func analyzeDeterminism(m *module, report moduleReport) {
	for _, p := range m.packages() {
		if !deterministic[p.unit] {
			continue
		}
		for _, mf := range p.all {
			eachSink(mf.info, mf.ast, func(ref ast.Expr, f *types.Func, rule string) {
				msg := fmt.Sprintf("global math/rand %s in deterministic package %s: thread a seeded *rand.Rand (internal/randx.New) instead",
					f.Name(), p.unit)
				if rule == "wallclock" {
					msg = fmt.Sprintf("time.%s in deterministic package %s: derive timing from virtual ticks, or annotate the site with //dwrlint:allow wallclock <why>",
						f.Name(), p.unit)
				}
				report(mf, ref.Pos(), rule, "", msg)
			})
		}
	}
}
