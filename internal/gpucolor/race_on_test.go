//go:build race

package gpucolor

// raceEnabled reports that the race detector is active; it slows the
// simulator by more than an order of magnitude.
const raceEnabled = true
