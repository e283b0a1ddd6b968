package gpuprim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gcolor/internal/simt"
)

// scanRun is one ExclusiveScanWith call: its outputs and every launch it
// charged, with WavefrontCost sorted — its order follows how phase-A
// workers interleave, so launches are compared as multisets of wavefronts.
type scanRun struct {
	dst      []int32
	total    int32
	launches []simt.RunResult
}

func runScan(dev *simt.Device, ss *ScanScratch, src []int32) scanRun {
	n := len(src)
	dst := dev.AllocInt32(n)
	var r scanRun
	r.total = ExclusiveScanWith(dev, dev.BindInt32(src), dst, n, ss, func(rr *simt.RunResult) {
		c := *rr
		c.Stats.WavefrontCost = slices.Clone(rr.Stats.WavefrontCost)
		slices.Sort(c.Stats.WavefrontCost)
		r.launches = append(r.launches, c)
	})
	r.dst = slices.Clone(dst.Data())
	return r
}

// TestExclusiveScanReplayMatchesFullSimulation: block-scan replay returns
// the values and KernelStats of full simulation — forced by attaching a
// disarmed fault injector, which changes nothing else — on lengths around
// the block size and on one that recurses two levels deep, with values that
// wrap int32, a warm scratch, and 1 or 4 phase-A workers.
func TestExclusiveScanReplayMatchesFullSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var byWorkers []map[int][]scanRun
	for _, workers := range []int{1, 4} {
		dev := simt.NewDevice()
		dev.Workers = workers
		oracle := simt.NewDevice()
		oracle.Workers = workers
		oracle.Fault = simt.NewFaultInjector(1, 0.5)
		oracle.Fault.Disarm()
		ss, oss := NewScanScratch(dev), NewScanScratch(oracle)
		runs := map[int][]scanRun{}
		for _, n := range []int{1, 255, 256, 257, 65537} {
			for pass := 0; pass < 2; pass++ { // cold, then warm scratch
				src := make([]int32, n)
				for i := range src {
					src[i] = rng.Int31() - 1<<30
				}
				got, want := runScan(dev, ss, src), runScan(oracle, oss, src)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers %d n %d pass %d: replay differs from full simulation", workers, n, pass)
				}
				if wantDst, wantTotal := hostExclusiveScan(src); got.total != wantTotal || !slices.Equal(got.dst, wantDst) {
					t.Fatalf("workers %d n %d pass %d: wrong prefix sums", workers, n, pass)
				}
				runs[n] = append(runs[n], got)
			}
		}
		if got := len(runs[65537][0].launches); got != 5 {
			t.Errorf("n 65537 charged %d launches, want 5 (three block scans, two uniform adds)", got)
		}
		byWorkers = append(byWorkers, runs)
		rng = rand.New(rand.NewSource(11)) // same inputs for the next worker count
	}
	if !reflect.DeepEqual(byWorkers[0], byWorkers[1]) {
		t.Error("1 and 4 phase-A workers give different scan stats")
	}
}
