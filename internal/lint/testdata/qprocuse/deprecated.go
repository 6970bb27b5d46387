// Fixture: deprecated qproc setter shims. The rule applies in every
// package (this directory's unit, "qprocuse", is deliberately not in
// the deterministic set).
package qprocuse

type engine struct{}

func (engine) SetWorkers(int)     {}
func (engine) SetResultCache(any) {}
func (engine) Workers() int       { return 0 }

func configure(e engine) {
	e.SetWorkers(4)       // want deprecated
	e.SetResultCache(nil) // want deprecated
	_ = e.Workers()
	// SetDefaultWorkers resolves cross-file (same-package calls whose
	// declaration the parser cannot see in this file), like the real
	// qproc package-level shims.
	SetDefaultWorkers(1) // want deprecated
	//dwrlint:allow deprecated regression coverage for the shim itself
	e.SetWorkers(0)
}
