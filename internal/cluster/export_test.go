package cluster

import "time"

// MaxInflight is the coordinator's admission cap.
const MaxInflight = maxInflight

// SetHealthLatency makes c's health scores observe f(addr, measured) for
// each dispatch to the worker at addr instead of the measured round trip.
func SetHealthLatency(c *Coordinator, f func(addr string, measured time.Duration) time.Duration) {
	c.reg.latency.Store(&f)
}

// AddInflight adds n to c's count of requests in flight, as n admitted
// and unfinished requests would.
func AddInflight(c *Coordinator, n int64) { c.inflight.Add(n) }
