package simt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Device describes one simulated GPU. The zero value is not usable; create
// devices with NewDevice and adjust fields before the first kernel launch.
type Device struct {
	// NumCUs is the number of compute units (default 28, as on the
	// Radeon HD 7950). Each CU executes its assigned workgroups serially.
	NumCUs int
	// WavefrontWidth is the SIMD width in lanes (default 64, GCN wavefront).
	WavefrontWidth int
	// WorkgroupSize is the default work-items per workgroup (default 256);
	// it must be a positive multiple of WavefrontWidth.
	WorkgroupSize int
	// Policy selects the workgroup scheduling policy used by Run
	// (default Static). SimulateSchedule can replay other policies.
	Policy Policy
	// Cost holds the timing constants.
	Cost CostModel
	// Workers bounds phase-A wall-clock parallelism; 0 means GOMAXPROCS.
	// Set 1 for fully deterministic inter-group execution order (only
	// observable by kernels that race through atomics by design). A
	// device with an armed fault injector always runs one worker.
	Workers int
	// Fault, when non-nil, injects deterministic seeded faults into every
	// kernel launch and switches the device to permissive out-of-bounds
	// semantics (see FaultInjector). nil — the default — costs nothing and
	// changes nothing.
	Fault *FaultInjector

	nextBuf  atomic.Int32
	launches atomic.Uint64

	// arena pools released device buffers (see arena.go); the remaining
	// pools recycle per-launch statistics slices and phase-A worker
	// scratch. All are concurrency-safe and cost nothing until used.
	arena      arena
	i64s       i64pool
	runResults sync.Pool
	workers_   sync.Pool
	launchSt   sync.Pool // *launchState
	coopSt     sync.Pool // *coopLaunchState
	stealSt    sync.Pool // *stealState
}

// NewDevice returns a device with HD 7950-like defaults.
func NewDevice() *Device {
	return &Device{
		NumCUs:         28,
		WavefrontWidth: 64,
		WorkgroupSize:  256,
		Policy:         Static,
		Cost:           DefaultCostModel(),
	}
}

// check panics on malformed configuration; configuration is programmer
// input, not runtime data.
func (d *Device) check() {
	if d.NumCUs < 1 {
		panic(fmt.Sprintf("simt: NumCUs = %d, want >= 1", d.NumCUs))
	}
	if d.WavefrontWidth < 1 {
		panic(fmt.Sprintf("simt: WavefrontWidth = %d, want >= 1", d.WavefrontWidth))
	}
	if d.WorkgroupSize < 1 || d.WorkgroupSize%d.WavefrontWidth != 0 {
		panic(fmt.Sprintf("simt: WorkgroupSize = %d, want positive multiple of wavefront width %d",
			d.WorkgroupSize, d.WavefrontWidth))
	}
}

// workers returns the phase-A worker count for the next launch. An armed
// fault injector forces one: a flipped index can make a lane write into
// another group's data, so the launch races, and only a fixed execution
// order keeps a faulty run reproducible.
func (d *Device) workers() int {
	if fi := d.Fault; fi != nil && fi.Armed() {
		return 1
	}
	if d.Workers > 0 {
		return d.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BufInt32 is a device buffer of 32-bit integers. Buffers wrap host slices
// zero-copy (shared virtual memory style); the simulator only needs the
// buffer identity and element index for coalescing analysis.
type BufInt32 struct {
	id   int32
	data []int32
	// pooled marks arena-allocated buffers (the only ones Release accepts);
	// released guards against use of the arena's double-release panic.
	pooled   bool
	released bool
}

// AllocInt32 allocates a zeroed device buffer of n elements. Allocation is
// served from the device arena when a previously Released buffer fits;
// otherwise it falls back to the heap. Either way the caller sees a zeroed
// buffer of exactly n elements, and may later hand it back with Release.
func (d *Device) AllocInt32(n int) *BufInt32 {
	if b := d.arena.take(n); b != nil {
		b.id = d.nextBuf.Add(1)
		b.data = b.data[:cap(b.data)][:n]
		for i := range b.data {
			b.data[i] = 0
		}
		b.released = false
		return b
	}
	b := d.BindInt32(make([]int32, n, 1<<bucketFor(n)))
	b.pooled = true
	return b
}

// BindInt32 wraps an existing slice as a device buffer without copying.
// The slice remains readable/writable from the host between kernel launches.
func (d *Device) BindInt32(data []int32) *BufInt32 {
	return &BufInt32{id: d.nextBuf.Add(1), data: data}
}

// Data returns the backing slice (host view) of the buffer.
func (b *BufInt32) Data() []int32 { return b.data }

// Len returns the element count of the buffer.
func (b *BufInt32) Len() int { return len(b.data) }

// Fill sets every element to v (a host-side operation, not accounted).
func (b *BufInt32) Fill(v int32) {
	for i := range b.data {
		b.data[i] = v
	}
}
