package serve

import (
	"container/heap"
	"context"
	"errors"
	"math"
	"sync"
	"time"
)

// Typed admission failures, usable with errors.Is.
var (
	// ErrQueueFull reports that the job queue was at capacity.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrShedding reports that admission control rejected a sub-high
	// priority job because queue occupancy crossed the shed threshold.
	ErrShedding = errors.New("serve: shedding load")
	// ErrClosed reports a submission to a stopped server.
	ErrClosed = errors.New("serve: server closed")
	// ErrDeadlineInQueue reports that a job's deadline expired while it
	// was still queued: it never reached a device. The job's context error
	// is wrapped alongside, so errors.Is matches both this sentinel and
	// context.Canceled / context.DeadlineExceeded.
	ErrDeadlineInQueue = errors.New("serve: deadline expired in queue")
)

// job is one queued execution. It is created by Submit for the first
// requester of a key; coalesced duplicates wait on the flight, not the
// queue.
type job struct {
	ctx      context.Context
	req      *Request
	fp       uint64
	shards   int // effective shard count resolved at admission (>= 1)
	enqueued time.Time
	seq      uint64
	fl       *flight
}

// jobQueue is a bounded priority queue: higher Priority first, FIFO within
// a level (heap ordered by (-priority, seq)). Admission control lives at
// push: a full queue returns ErrQueueFull, and occupancy at or above
// shedAt admits only PriorityHigh, returning ErrShedding otherwise.
// Dequeue is deadline-aware — pop discards jobs whose context has already
// expired so they never reach a device; the discard is reported through the
// expired callback so the server can fail their waiters.
type jobQueue struct {
	mu       sync.Mutex
	items    jobHeap
	cap      int
	shedAt   int // occupancy (items) at which sub-high work is shed
	seq      uint64
	closed   bool
	nonEmpty chan struct{} // capacity 1; signaled on push and close
}

// defaultShedFraction is the queue occupancy fraction at which sub-high
// work is shed when the caller supplies no usable fraction.
const defaultShedFraction = 0.75

func newJobQueue(capacity int, shedFraction float64) *jobQueue {
	if capacity < 1 {
		capacity = 1
	}
	// Normalize the fraction before sizing the threshold: NaN and negative
	// values are nonsense, not a request to disable shedding, so they fall
	// back to the default rather than silently admitting sub-high work all
	// the way to ErrQueueFull. Only fraction >= 1 — the documented opt-out
	// — disables early shedding.
	if math.IsNaN(shedFraction) || shedFraction <= 0 {
		shedFraction = defaultShedFraction
	}
	shedAt := capacity
	if shedFraction < 1 {
		shedAt = int(shedFraction * float64(capacity))
		if shedAt < 1 {
			shedAt = 1
		}
	}
	return &jobQueue{
		cap:      capacity,
		shedAt:   shedAt,
		nonEmpty: make(chan struct{}, 1),
	}
}

// push admits j or returns a typed admission error.
func (q *jobQueue) push(j *job) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	n := len(q.items)
	if n >= q.cap {
		q.mu.Unlock()
		return ErrQueueFull
	}
	if n >= q.shedAt && j.req.Priority < PriorityHigh {
		q.mu.Unlock()
		return ErrShedding
	}
	j.seq = q.seq
	q.seq++
	j.enqueued = time.Now()
	heap.Push(&q.items, j)
	q.mu.Unlock()
	q.signal()
	return nil
}

func (q *jobQueue) signal() {
	select {
	case q.nonEmpty <- struct{}{}:
	default:
	}
}

// pop blocks until a live job is available, the queue is closed and
// drained (ErrClosed), or ctx is done. Jobs whose own context expired
// while queued are handed to expired and never returned.
//
// Exactly-once audit: a job leaves the queue exactly one way — returned
// from one worker's pop (heap.Pop under q.mu is exclusive), diverted to
// the expired callback by that same pop, or drained by flush (which also
// pops under q.mu). The expired callback runs outside the lock, but by
// then the job is no longer in q.items, so no second worker and no flush
// can see it again; flight.complete's once-guard is defense in depth, not
// the mechanism.
func (q *jobQueue) pop(ctx context.Context, expired func(*job)) (*job, error) {
	for {
		q.mu.Lock()
		for len(q.items) > 0 {
			j := heap.Pop(&q.items).(*job)
			if j.ctx.Err() != nil {
				q.mu.Unlock()
				expired(j)
				q.mu.Lock()
				continue
			}
			// More items may remain; wake the next worker.
			if len(q.items) > 0 {
				q.signal()
			}
			q.mu.Unlock()
			return j, nil
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			// Cascade the wake-up: close() sends a single token, but any
			// number of workers may be blocked below.
			q.signal()
			return nil, ErrClosed
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-q.nonEmpty:
		}
	}
}

// close marks the queue closed; queued jobs continue to drain, new pushes
// fail with ErrClosed, and blocked pops return ErrClosed once drained.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

// flush removes every queued job and hands each to fn, returning the
// count. Used by the drain-timeout path to hand still-queued work back to
// its callers; the queue must already be closed so it cannot refill — an
// open-queue flush would race concurrent pushes and strand jobs, so it
// panics rather than corrupting the exactly-once audit.
func (q *jobQueue) flush(fn func(*job)) int {
	q.mu.Lock()
	if !q.closed {
		q.mu.Unlock()
		panic("serve: jobQueue.flush called before close")
	}
	items := q.items
	q.items = nil
	q.mu.Unlock()
	for _, j := range items {
		fn(j)
	}
	q.signal()
	return len(items)
}

// depth returns the current occupancy.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// jobHeap implements container/heap: max priority first, then FIFO.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].req.Priority != h[j].req.Priority {
		return h[i].req.Priority > h[j].req.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
