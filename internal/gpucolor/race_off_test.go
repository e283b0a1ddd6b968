//go:build !race

package gpucolor

const raceEnabled = false
