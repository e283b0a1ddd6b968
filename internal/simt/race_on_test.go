//go:build race

package simt

// raceEnabled reports that the race detector is active; its
// instrumentation allocates and sync.Pool drops entries at random, so
// allocation budgets don't hold.
const raceEnabled = true
