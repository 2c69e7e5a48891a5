package analysis

// All returns the project's analyzers in their canonical order. The set
// maps one-to-one onto the paper properties DESIGN.md documents:
// ctcompare ↔ constant-time MAC/digest verification, weakrand ↔
// forward-secure trapdoor randomness, maporder ↔ the history-independent
// dictionary, wallclock ↔ deterministic replay and gas constancy, errdrop
// ↔ no vacuously-succeeding verification; the flow-sensitive pair adds
// secrettaint ↔ key-material confinement and lockdiscipline ↔ data-race
// freedom of the shared server state.
func All() []*Analyzer {
	return []*Analyzer{CTCompare, WeakRand, MapOrder, WallClock, ErrDrop, SecretTaint, LockDiscipline}
}
