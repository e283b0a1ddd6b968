package gpucolor

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"gcolor/internal/simt"
)

// replayGeometries are the device shapes the replay differential test runs
// on: the default device, plus small-workgroup variants (so the suite's
// graphs span many scan blocks) with the cache model off, a workgroup size
// that is not a multiple of the segment size (replay falls back), a narrow
// wavefront, and a bank count that is not a power of two.
func replayGeometries() map[string]func() *simt.Device {
	small := func() *simt.Device {
		d := simt.NewDevice()
		d.NumCUs, d.WavefrontWidth, d.WorkgroupSize = 4, 16, 64
		return d
	}
	return map[string]func() *simt.Device{
		"default": simt.NewDevice,
		"nocache": func() *simt.Device { d := small(); d.Cost.CacheSegments = 0; return d },
		"unaligned": func() *simt.Device {
			d := small()
			d.Cost.SegmentElems = 24
			return d
		},
		"narrow":  func() *simt.Device { d := small(); d.WavefrontWidth = 4; return d },
		"banks24": func() *simt.Device { d := small(); d.Cost.LDSBanks = 24; return d },
	}
}

// withReplay returns mk's device with one phase-A worker.
func withReplay(mk func() *simt.Device) *simt.Device {
	d := mk()
	d.Workers = 1
	return d
}

// withOracle returns mk's device with four phase-A workers and a disarmed
// fault injector attached, which forces full simulation of every
// workgroup and changes nothing else.
func withOracle(mk func() *simt.Device) *simt.Device {
	d := mk()
	d.Workers = 4
	d.Fault = simt.NewFaultInjector(1, 0.5)
	d.Fault.Disarm()
	return d
}

// sameResult reports whether two Results agree in every field.
// WavefrontWork is compared as a multiset: its order follows how phase-A
// workers interleave.
func sameResult(a, b *Result) bool {
	norm := func(r *Result) Result {
		c := *r
		c.WavefrontWork = slices.Clone(r.WavefrontWork)
		slices.Sort(c.WavefrontWork)
		return c
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// TestReplayMatchesFullSimulation is the differential test for scan
// replay: every algorithm, scheduling policy and suite graph, through a
// pooled Runner and through transient Color calls, returns a Result equal
// in every field to full simulation on each replay geometry. Replay runs
// one phase-A worker and full simulation four, so the comparison also
// shows that neither depends on the worker count. Under the race detector
// only the stealing policy runs: group costs are recorded before any
// policy is simulated from them, so the policy cannot change what replay
// does, and the full matrix would take over ten minutes there.
func TestReplayMatchesFullSimulation(t *testing.T) {
	graphs := suite()
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	opt := Options{Seed: 5, Trace: true}
	policies := []simt.Policy{simt.Static, simt.RoundRobin, simt.Stealing}
	if raceEnabled {
		policies = policies[2:]
	}
	for geo, mk := range replayGeometries() {
		for _, p := range policies {
			t.Run(geo+"/"+p.String(), func(t *testing.T) {
				dev, oracle := withReplay(mk), withOracle(mk)
				dev.Policy, oracle.Policy = p, p
				rn, orn := NewRunner(dev), NewRunner(oracle)
				defer rn.Release()
				defer orn.Release()
				for _, alg := range Algorithms() {
					for _, name := range names {
						g := graphs[name]
						got, gerr := rn.Color(g, alg, opt)
						want, werr := orn.Color(g, alg, opt)
						if gerr != nil || werr != nil {
							t.Fatalf("%v/%s pooled: errors %v / %v", alg, name, gerr, werr)
						}
						if !sameResult(got, want) {
							t.Errorf("%v/%s pooled: replay Result differs from full simulation", alg, name)
						}
						td, to := withReplay(mk), withOracle(mk)
						td.Policy, to.Policy = p, p
						got, gerr = Color(td, g, alg, opt)
						want, werr = Color(to, g, alg, opt)
						if gerr != nil || werr != nil {
							t.Fatalf("%v/%s transient: errors %v / %v", alg, name, gerr, werr)
						}
						if !sameResult(got, want) {
							t.Errorf("%v/%s transient: replay Result differs from full simulation", alg, name)
						}
					}
				}
			})
		}
	}
}
