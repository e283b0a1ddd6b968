//go:build !race

package simt

const raceEnabled = false
