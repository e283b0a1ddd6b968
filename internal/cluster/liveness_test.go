package cluster

import (
	"fmt"
	"testing"
	"time"
)

// The hysteresis machine is a pure function of the observation sequence,
// so the whole contract is table-testable: N consecutive misses demote,
// M consecutive hits re-admit, and any opposite observation resets the
// other streak — which is exactly why a flapping link cannot oscillate
// membership.
func TestHysteresisTable(t *testing.T) {
	cases := []struct {
		name    string
		seq     string // 'h' = probe hit, 'm' = probe miss
		down    bool   // expected final state
		demos   int    // expected demotion transitions
		readmit int    // expected re-admission transitions
	}{
		{"fresh is up", "", false, 0, 0},
		{"two misses hold", "mm", false, 0, 0},
		{"three misses demote", "mmm", true, 1, 0},
		{"extra misses don't re-demote", "mmmmm", true, 1, 0},
		{"hit resets the miss streak", "mmhmm", false, 0, 0},
		{"flapping never demotes", "mhmhmhmhmhmhmhmhmhmh", false, 0, 0},
		{"two-miss flaps never demote", "mmhmmhmmhmmhmmh", false, 0, 0},
		{"demote then one hit holds down", "mmmh", true, 1, 0},
		{"demote then hit streak re-admits", "mmmhh", false, 1, 1},
		{"miss resets the readmit streak", "mmmhmhmh", true, 1, 0},
		{"full cycle twice", "mmmhhmmmhh", false, 2, 2},
		{"flapping while down stays down", "mmmhmhmhmhmhmhmhmhmh", true, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hy := hysteresis{missThreshold: 3, readmitStreak: 2}
			demos, readmits := 0, 0
			for _, c := range tc.seq {
				switch c {
				case 'h':
					if hy.hit() {
						readmits++
					}
				case 'm':
					if hy.miss() {
						demos++
					}
				}
			}
			if hy.down != tc.down || demos != tc.demos || readmits != tc.readmit {
				t.Fatalf("seq %q: down=%v demotions=%d readmissions=%d, want %v/%d/%d",
					tc.seq, hy.down, demos, readmits, tc.down, tc.demos, tc.readmit)
			}
		})
	}
}

// Single-miss demotion must still work for deployments that want the old
// hair-trigger behaviour.
func TestHysteresisThresholdOne(t *testing.T) {
	hy := hysteresis{missThreshold: 1, readmitStreak: 1}
	if !hy.miss() {
		t.Fatal("first miss did not demote at threshold 1")
	}
	if !hy.hit() {
		t.Fatal("first hit did not re-admit at streak 1")
	}
}

// ageMembers moves the last sighting of each of c's members d into the
// past, as d of silence would.
func ageMembers(c *Coordinator, d time.Duration) {
	for _, m := range c.reg.all() {
		m.mu.Lock()
		m.lastSeen = m.lastSeen.Add(-d)
		m.mu.Unlock()
	}
}

// A member expires after expireProbes probe intervals of silence. With
// probing off, silence says nothing about a member, so a static peer that
// no job has reached for longer than 6 x 500 ms stays alive.
func TestMemberExpiryFollowsProbing(t *testing.T) {
	cases := []struct {
		name     string
		interval time.Duration
		silence  time.Duration
		alive    bool
	}{
		{"probing on, inside 6 intervals", time.Hour, 5 * time.Hour, true},
		{"probing on, past 6 intervals", time.Hour, 7 * time.Hour, false},
		{"probing off", -1, 24 * time.Hour, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(Config{Peers: []string{"http://127.0.0.1:1"}, HeartbeatInterval: tc.interval})
			defer c.Close()
			ageMembers(c, tc.silence)
			st := c.Stats()
			if got := st.AliveWorkers == 1 && st.Members[0].Alive; got != tc.alive {
				t.Fatalf("after %v of silence: alive workers %d, member %+v; want alive %v",
					tc.silence, st.AliveWorkers, st.Members[0], tc.alive)
			}
		})
	}
}

// A join whose instance ID is already bound to another address means the
// worker restarted there: the old address is dead at once, whether or not
// probing is on, and exactly one member stays alive and routable.
func TestInstanceRebindLeavesOneMember(t *testing.T) {
	const oldAddr, newAddr = "http://127.0.0.1:1", "http://127.0.0.1:2"
	for _, iv := range []time.Duration{time.Hour, -1} {
		t.Run(fmt.Sprintf("heartbeat %v", iv), func(t *testing.T) {
			c := NewCoordinator(Config{HeartbeatInterval: iv})
			defer c.Close()
			for _, addr := range []string{oldAddr, newAddr} {
				if _, err := c.Join(JoinRequest{Addr: addr, ID: "w-1"}); err != nil {
					t.Fatal(err)
				}
			}
			st := c.Stats()
			if st.Workers != 2 || st.AliveWorkers != 1 || st.Rebinds != 1 {
				t.Fatalf("workers %d, alive %d, rebinds %d; want 2, 1, 1", st.Workers, st.AliveWorkers, st.Rebinds)
			}
			for _, m := range st.Members {
				if m.Alive != (m.Addr == newAddr) {
					t.Fatalf("member %s alive %v; want only %s alive", m.Addr, m.Alive, newAddr)
				}
			}
			for key := uint64(0); key < 8; key++ {
				if m, _, err := c.reg.pick(key, nil); err != nil || m.addr != newAddr {
					t.Fatalf("key %d picked %v (%v); want %s", key, m, err, newAddr)
				}
			}
		})
	}
}
