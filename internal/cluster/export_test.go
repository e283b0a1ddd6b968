package cluster

import "time"

// SetHealthLatency makes c's health scores observe f(addr, measured) for
// each dispatch to the worker at addr instead of the measured round trip.
func SetHealthLatency(c *Coordinator, f func(addr string, measured time.Duration) time.Duration) {
	c.reg.latency.Store(&f)
}
