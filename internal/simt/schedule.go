package simt

import (
	"fmt"
	"slices"
)

// Policy selects how workgroups are distributed over compute units.
type Policy int

const (
	// Static assigns contiguous chunks of workgroups to CUs up front —
	// the paper's baseline hardware dispatcher stand-in. Hub-dense id
	// ranges land on one CU, which is what work stealing fixes.
	Static Policy = iota
	// RoundRobin deals workgroups to CUs cyclically.
	RoundRobin
	// Stealing starts from the Static assignment but lets an idle CU steal
	// the back half of the fullest remaining queue, paying StealCost per
	// steal — the paper's task-donation/work-stealing technique.
	Stealing
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case RoundRobin:
		return "round-robin"
	case Stealing:
		return "stealing"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ScheduleResult describes the outcome of replaying recorded workgroup costs
// through a scheduling policy in virtual time.
type ScheduleResult struct {
	Policy Policy
	// CUBusy[c] is the cycles CU c spent executing workgroups (plus steal
	// charges); CUFinish[c] is its completion time.
	CUBusy   []int64
	CUFinish []int64
	Steals   int64
	// Makespan is the finish time of the slowest CU; Cycles adds the kernel
	// launch overhead and is the simulated end-to-end kernel time.
	Makespan int64
	Cycles   int64
}

// SimulateSchedule replays per-workgroup costs under policy p on device d.
// It is deterministic and can be called repeatedly with different policies
// on the same recorded costs.
func SimulateSchedule(d *Device, groupCost []int64, p Policy) ScheduleResult {
	d.check()
	n := d.NumCUs
	res := ScheduleResult{
		Policy:   p,
		CUBusy:   d.i64s.get(n),
		CUFinish: d.i64s.get(n),
	}
	switch p {
	case Static:
		chunk := (len(groupCost) + n - 1) / n
		for g, c := range groupCost {
			cu := 0
			if chunk > 0 {
				cu = g / chunk
			}
			res.CUBusy[cu] += c
		}
	case RoundRobin:
		for g, c := range groupCost {
			res.CUBusy[g%n] += c
		}
	case Stealing:
		res.Steals = simulateStealing(d, groupCost, res.CUBusy)
	default:
		panic(fmt.Sprintf("simt: unknown policy %d", int(p)))
	}
	copy(res.CUFinish, res.CUBusy)
	for _, f := range res.CUFinish {
		if f > res.Makespan {
			res.Makespan = f
		}
	}
	res.Cycles = res.Makespan + d.Cost.KernelLaunch
	return res
}

// cuState is one compute unit inside the virtual-time stealing simulation.
type cuState struct {
	clock int64
	// queue is the CU's remaining workgroup costs, front = next to execute.
	// It is a read-only view of the launch's groupCost: a CU starts with
	// its static chunk, and a steal only ever hands the back of one view to
	// a CU whose own view is empty, so nothing is ever copied or written.
	queue []int64
}

// stealState is the scratch of one stealing simulation, pooled per device
// so that steady-state launches allocate nothing.
type stealState struct {
	cus  []cuState
	heap []int32 // CU ids, a binary min-heap ordered by (clock, id)
}

func (s *stealState) less(i, j int) bool {
	a, b := &s.cus[s.heap[i]], &s.cus[s.heap[j]]
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return s.heap[i] < s.heap[j]
}

// down restores heap order from the root over the first n entries: the
// sift-down of container/heap, without the interface calls and boxing.
func (s *stealState) down(n int) {
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && s.less(j2, j) {
			j = j2
		}
		if !s.less(j, i) {
			return
		}
		s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
		i = j
	}
}

// simulateStealing runs the event loop: the CU with the smallest clock acts
// next — executing from its own queue's front, or stealing the back half of
// the fullest queue when its own is empty. Returns the number of steals and
// fills busy with per-CU finish-relevant work.
func simulateStealing(d *Device, groupCost []int64, busy []int64) int64 {
	n := d.NumCUs
	s, _ := d.stealSt.Get().(*stealState)
	if s == nil {
		s = &stealState{}
	}
	s.cus = slices.Grow(s.cus[:0], n)[:n]
	s.heap = slices.Grow(s.heap[:0], n)[:n]
	chunk := (len(groupCost) + n - 1) / n
	for i := range s.cus {
		lo := min(i*chunk, len(groupCost))
		hi := min(lo+chunk, len(groupCost))
		s.cus[i] = cuState{queue: groupCost[lo:hi]}
		s.heap[i] = int32(i)
	}
	// Every clock starts at zero and the ids ascend: the heap starts ordered.

	var steals int64
	for live := n; live > 0; {
		id := int(s.heap[0])
		cu := &s.cus[id]
		if len(cu.queue) > 0 {
			cu.clock += cu.queue[0]
			cu.queue = cu.queue[1:]
			s.down(live)
			continue
		}
		// Steal from the CU with the most queued work, the lowest id on a
		// tie. Victims must hold at least two groups: the last item in a
		// deque is the one its owner is about to execute, and letting
		// thieves take it makes a lone expensive group ping-pong between
		// idle CUs forever (each steal charge pushes the holder's clock
		// above the next idler's, so the holder never reaches the front of
		// the event queue). Scanning all CUs is O(n) per steal; n is a few
		// dozen, and steals are rare.
		victim := -1
		for v := range s.cus {
			q := len(s.cus[v].queue)
			if v != id && q >= 2 && (victim < 0 || q > len(s.cus[victim].queue)) {
				victim = v
			}
		}
		if victim < 0 {
			// Nothing left anywhere: this CU is done and leaves the heap.
			live--
			s.heap[0], s.heap[live] = s.heap[live], s.heap[0]
			s.down(live)
			continue
		}
		// Take the back half (at least one group); pay for the attempt.
		vq := s.cus[victim].queue
		split := len(vq) - max(len(vq)/2, 1)
		cu.queue, s.cus[victim].queue = vq[split:], vq[:split]
		cu.clock += d.Cost.StealCost
		steals++
		s.down(live)
	}
	for i := range s.cus {
		busy[i] = s.cus[i].clock
	}
	clear(s.cus) // drop the views of groupCost before pooling
	d.stealSt.Put(s)
	return steals
}
