package simt

import "sync/atomic"

// Fault injection. A FaultInjector plugged into Device.Fault perturbs
// kernel execution in four hardware-motivated ways:
//
//   - bit flips on buffer reads (transient soft errors on the load path:
//     the value returned to the lane is corrupted, memory is untouched);
//   - spurious atomic CAS failures (the operation reports a mismatching
//     observed value and performs no swap);
//   - wavefront aborts (a wavefront is killed before executing: its lanes
//     perform no work and none of their writes happen);
//   - workgroup stalls (a workgroup's simulated cost is multiplied by
//     StallFactor, modelling a group wedged far past its cycle budget).
//
// Every decision is a pure function of (Seed, launch index, coordinates):
// a read is keyed by its issuing work-item and per-lane access ordinal, an
// abort by its workgroup and wavefront index, a stall by its workgroup.
// A corrupted index can still make one group write another group's data,
// which turns a race-free kernel into a racing one, so a device with an
// armed injector runs phase A on one worker in group order. Faulty runs
// thus stay bit-for-bit reproducible — the property the chaos suite
// asserts.
//
// Arming an injector also switches the device to permissive out-of-bounds
// semantics, because corrupted indices must corrupt data, not crash the
// host process: out-of-range reads return 0 (poison), out-of-range writes
// and atomics are dropped, and a workgroup whose kernel body panics on
// corrupted data (e.g. a negative slice length) is aborted and counted
// instead of taking the process down. With Device.Fault == nil none of
// these paths are entered and kernels run exactly as before, at full
// fail-fast strictness.
//
// Bit flips are restricted to the low byte of the loaded value. This keeps
// the blast radius of a corrupted index or loop bound small (offsets move
// by < 256, so a poisoned loop terminates promptly) while still exercising
// every recovery path; it is a pragmatic bound on fault magnitude, not a
// claim about real soft-error physics.

// FaultInjector injects deterministic, seeded faults into kernel
// execution. The zero value injects nothing; set the per-site rates (each
// a probability in [0, 1]) to arm specific fault classes. Rates and seed
// must not be reconfigured while a kernel is running, but Arm/Disarm flip
// an atomic gate and are safe at any time — the serving self-healing
// tests (internal/serve's TestChaosSoak) use them to sicken and heal a
// device mid-run. A disarmed injector
// injects nothing (runs behave exactly as fault-free), while the
// permissive out-of-bounds absorption below stays active, so disarming
// mid-kernel can never turn an already-corrupted index into a crash.
type FaultInjector struct {
	// Seed selects the fault pattern; two runs with equal seeds (on fresh
	// devices) inject identical faults.
	Seed uint64
	// BitFlipRate is the per-read probability of flipping one low-order
	// bit of the loaded value.
	BitFlipRate float64
	// CASFailRate is the per-CAS probability of a spurious failure.
	CASFailRate float64
	// WavefrontAbortRate is the per-wavefront probability (per workgroup
	// for cooperative kernels) of the wavefront being killed before it
	// executes.
	WavefrontAbortRate float64
	// StallRate is the per-workgroup probability of a stall; a stalled
	// group's cost is multiplied by StallFactor (default 64).
	StallRate   float64
	StallFactor int64

	// disarmed gates injection (inverted so the zero value stays armed,
	// preserving the behaviour of injectors built by struct literal).
	disarmed atomic.Bool

	bitFlips   atomic.Int64
	casFails   atomic.Int64
	aborts     atomic.Int64
	stalls     atomic.Int64
	oobReads   atomic.Int64
	oobWrites  atomic.Int64
	oobAtomics atomic.Int64
	panics     atomic.Int64
}

// NewFaultInjector returns an injector with every rate set to rate and the
// default stall factor.
func NewFaultInjector(seed uint64, rate float64) *FaultInjector {
	return &FaultInjector{
		Seed:               seed,
		BitFlipRate:        rate,
		CASFailRate:        rate,
		WavefrontAbortRate: rate,
		StallRate:          rate,
		StallFactor:        64,
	}
}

// Arm enables injection. Safe to call while kernels are running: the
// deterministic fault pattern is a pure function of coordinates, so arming
// mid-run simply starts applying it from the next decision on.
func (f *FaultInjector) Arm() { f.disarmed.Store(false) }

// Disarm disables injection without detaching the injector: subsequent
// runs behave exactly as fault-free while the counters and the permissive
// OOB absorption remain in place. Safe to call while kernels are running.
func (f *FaultInjector) Disarm() { f.disarmed.Store(true) }

// Armed reports whether injection is currently enabled.
func (f *FaultInjector) Armed() bool { return !f.disarmed.Load() }

// FaultStats is a snapshot of the faults injected (and fault side-effects
// absorbed) so far.
type FaultStats struct {
	// Faults injected by the four injection sites.
	BitFlips        int64
	CASFails        int64
	WavefrontAborts int64
	Stalls          int64
	// Fault side-effects absorbed by the permissive execution mode:
	// out-of-bounds accesses served as poison/dropped, and workgroup
	// kernel panics converted to group aborts.
	OOBReads    int64
	OOBWrites   int64
	OOBAtomics  int64
	GroupPanics int64
}

// Injected returns the number of primary faults injected (excluding the
// absorbed side-effect counters).
func (s FaultStats) Injected() int64 {
	return s.BitFlips + s.CASFails + s.WavefrontAborts + s.Stalls
}

// Stats returns a snapshot of the injector's counters.
func (f *FaultInjector) Stats() FaultStats {
	return FaultStats{
		BitFlips:        f.bitFlips.Load(),
		CASFails:        f.casFails.Load(),
		WavefrontAborts: f.aborts.Load(),
		Stalls:          f.stalls.Load(),
		OOBReads:        f.oobReads.Load(),
		OOBWrites:       f.oobWrites.Load(),
		OOBAtomics:      f.oobAtomics.Load(),
		GroupPanics:     f.panics.Load(),
	}
}

// Reset clears the counters (the fault pattern itself is stateless).
func (f *FaultInjector) Reset() {
	f.bitFlips.Store(0)
	f.casFails.Store(0)
	f.aborts.Store(0)
	f.stalls.Store(0)
	f.oobReads.Store(0)
	f.oobWrites.Store(0)
	f.oobAtomics.Store(0)
	f.panics.Store(0)
}

// Domain-separation salts for the decision hash, one per fault class.
const (
	saltFlip uint64 = 0xF11F + iota
	saltCAS
	saltAbort
	saltStall
)

// roll hashes one fault-decision coordinate tuple to a uniform uint64
// (splitmix64 finalizer over the mixed inputs).
func (f *FaultInjector) roll(salt, launch uint64, a, b int64) uint64 {
	x := f.Seed
	x ^= salt * 0x9e3779b97f4a7c15
	x ^= launch * 0xbf58476d1ce4e5b9
	x ^= uint64(a) * 0x94d049bb133111eb
	x ^= uint64(b) * 0xd6e8feb86659fd93
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// threshold maps a probability to the uint64 acceptance bound.
func threshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return ^uint64(0)
	}
	return uint64(rate * float64(1<<63) * 2)
}

// ld serves a plain buffer load under injection: permissive out-of-bounds
// (poison 0) and a possible low-byte bit flip keyed by the work-item's id
// and per-lane access ordinal.
func (f *FaultInjector) ld(launch uint64, global, ordinal int32, b *BufInt32, i int32) int32 {
	if i < 0 || int(i) >= len(b.data) {
		f.oobReads.Add(1)
		return 0
	}
	v := b.data[i]
	if f.BitFlipRate > 0 && f.Armed() {
		if h := f.roll(saltFlip, launch, int64(global), int64(ordinal)); h < threshold(f.BitFlipRate) {
			f.bitFlips.Add(1)
			v ^= 1 << ((h >> 56) & 7)
		}
	}
	return v
}

// ldShared is ld with a relaxed-atomic host read (the LdShared path); the
// fault decision is keyed identically, so arming an injector perturbs
// fused and unfused kernels the same way.
func (f *FaultInjector) ldShared(launch uint64, global, ordinal int32, b *BufInt32, i int32) int32 {
	if i < 0 || int(i) >= len(b.data) {
		f.oobReads.Add(1)
		return 0
	}
	v := atomic.LoadInt32(&b.data[i])
	if f.BitFlipRate > 0 && f.Armed() {
		if h := f.roll(saltFlip, launch, int64(global), int64(ordinal)); h < threshold(f.BitFlipRate) {
			f.bitFlips.Add(1)
			v ^= 1 << ((h >> 56) & 7)
		}
	}
	return v
}

// stOK reports whether a plain store may proceed (permissive OOB: dropped).
func (f *FaultInjector) stOK(b *BufInt32, i int32) bool {
	if i < 0 || int(i) >= len(b.data) {
		f.oobWrites.Add(1)
		return false
	}
	return true
}

// atomicOK reports whether an atomic op may proceed (permissive OOB:
// dropped, returning 0 to the lane).
func (f *FaultInjector) atomicOK(b *BufInt32, i int32) bool {
	if i < 0 || int(i) >= len(b.data) {
		f.oobAtomics.Add(1)
		return false
	}
	return true
}

// failCAS decides whether this CAS spuriously fails, keyed by the
// work-item and its per-lane atomic ordinal.
func (f *FaultInjector) failCAS(launch uint64, global, ordinal int32) bool {
	if f.CASFailRate <= 0 || !f.Armed() {
		return false
	}
	if f.roll(saltCAS, launch, int64(global), int64(ordinal)) < threshold(f.CASFailRate) {
		f.casFails.Add(1)
		return true
	}
	return false
}

// abortWavefront decides whether wavefront wf of workgroup group is killed
// before executing.
func (f *FaultInjector) abortWavefront(launch uint64, group, wf int32) bool {
	if f.WavefrontAbortRate <= 0 || !f.Armed() {
		return false
	}
	if f.roll(saltAbort, launch, int64(group), int64(wf)) < threshold(f.WavefrontAbortRate) {
		f.aborts.Add(1)
		return true
	}
	return false
}

// stallGroup decides whether workgroup group stalls; the caller multiplies
// its cost by stallFactor.
func (f *FaultInjector) stallGroup(launch uint64, group int32) bool {
	if f.StallRate <= 0 || !f.Armed() {
		return false
	}
	if f.roll(saltStall, launch, int64(group), 0) < threshold(f.StallRate) {
		f.stalls.Add(1)
		return true
	}
	return false
}

func (f *FaultInjector) stallFactor() int64 {
	if f.StallFactor > 0 {
		return f.StallFactor
	}
	return 64
}

// notePanic records a workgroup kernel panic absorbed by the permissive
// execution mode.
func (f *FaultInjector) notePanic() { f.panics.Add(1) }
