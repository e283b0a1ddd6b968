package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosSoak is the self-healing soak: closed-loop HTTP load on a
// 4-device pool while one device's fault injector is armed, then
// disarmed, mid-run. The pool must quarantine the victim within 10
// phases, keep fault-window throughput at >= 70% of the healthy baseline,
// re-admit the victim through half-open probes within 10 phases of the
// fault clearing, and bring the error rate back to baseline. It runs on
// the default breaker, health and hedge thresholds.
func TestChaosSoak(t *testing.T) {
	const (
		devices   = 4
		victim    = 1
		conc      = 8
		faultRate = 0.02
		phase     = 2 * time.Second
	)
	cfgs := make([]DeviceConfig, devices)
	for i := range cfgs {
		// Small devices keep each run short, so a phase sees hundreds of
		// requests.
		cfgs[i] = DeviceConfig{NumCUs: 8, FaultRate: faultRate, FaultSeed: uint64(i + 1)}
	}
	s := NewServer(Config{
		DeviceConfigs: cfgs,
		QueueCapacity: 256,
		ShedFraction:  1, // no early shedding: the soak measures healing, not admission
		CacheEntries:  -1,
	})
	defer s.Stop()
	// Every injector starts armed; the pool runs fault-free until the
	// victim's is armed again mid-run.
	for i := range devices {
		s.Pool().FaultInjector(i).Disarm()
	}
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// Every request executes (no cache), and a faulted run fails at once
	// (no retries, no CPU fallback), so the sick device's outcomes reach
	// its breaker undiluted. The mix is two grids to one R-MAT graph.
	var bodies [][]byte
	for _, spec := range []string{"grid:24:24", "grid:24:24", "rmat:8:8:1"} {
		b, err := json.Marshal(&ColorRequest{
			Gen: spec, Alg: "baseline", Policy: "static", Priority: "normal", TimeoutMS: 2000,
			NoCache: true, NoCPUFallback: true, MaxRetries: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	tr := &http.Transport{MaxIdleConns: 4 * conc, MaxIdleConnsPerHost: conc}
	defer tr.CloseIdleConnections()
	client := &http.Client{Timeout: 10 * time.Second, Transport: tr}

	var ok, failed, sent atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if soakRequest(client, ts.URL, bodies[sent.Add(1)%int64(len(bodies))]) {
					ok.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}()
	}
	defer wg.Wait()
	defer cancel()

	// measure is one phase's throughput and error rate.
	measure := func() (rps, errRate float64) {
		ok.Store(0)
		failed.Store(0)
		time.Sleep(phase)
		good, bad := ok.Load(), failed.Load()
		if good+bad > 0 {
			errRate = float64(bad) / float64(good+bad)
		}
		return float64(good) / phase.Seconds(), errRate
	}
	waitBreaker := func(want BreakerState) (time.Duration, bool) {
		start := time.Now()
		for time.Since(start) < 10*phase {
			if s.Pool().BreakerState(victim) == want {
				return time.Since(start), true
			}
			time.Sleep(20 * time.Millisecond)
		}
		return 10 * phase, false
	}

	baseRPS, baseErr := measure()
	t.Logf("baseline: %.1f req/s, error rate %.3f", baseRPS, baseErr)

	s.Pool().FaultInjector(victim).Arm()
	quarantineWait, quarantined := waitBreaker(BreakerOpen)
	t.Logf("device %d quarantined %v after %v (health %.3f)",
		victim, quarantined, quarantineWait.Round(time.Millisecond), s.Pool().HealthScore(victim))
	// Fault-window throughput is measured with the victim quarantined:
	// the regime the pool settles into while the fault persists.
	faultRPS, faultErr := measure()
	ratio := faultRPS / baseRPS
	t.Logf("fault window: %.1f req/s (%.2fx baseline), error rate %.3f", faultRPS, ratio, faultErr)

	s.Pool().FaultInjector(victim).Disarm()
	readmitWait, readmitted := waitBreaker(BreakerClosed)
	t.Logf("device %d re-admitted %v after %v", victim, readmitted, readmitWait.Round(time.Millisecond))
	recRPS, recErr := measure()
	t.Logf("recovered: %.1f req/s, error rate %.3f, victim health %.3f", recRPS, recErr, s.Pool().HealthScore(victim))

	cancel()
	wg.Wait()
	st := s.Stats()
	t.Logf("quarantines %d, readmitted %d, probes %d (%d failed), hedges %d (%d won)",
		st.Quarantines, st.Readmitted, st.Probes, st.ProbeFailures, st.Hedges, st.HedgeWins)

	if !quarantined {
		t.Errorf("victim not quarantined (breaker open) within %v", 10*phase)
	}
	if !readmitted {
		t.Errorf("victim not re-admitted (breaker closed) within %v", 10*phase)
	}
	if ratio < 0.70 {
		t.Errorf("fault-window throughput %.1f req/s is %.2fx the baseline %.1f; want >= 0.70x", faultRPS, ratio, baseRPS)
	}
	if st.Readmitted < 1 || st.Probes < 1 {
		t.Errorf("readmitted_total %d, probes_total %d; want both >= 1", st.Readmitted, st.Probes)
	}
	// One point of slack for requests that straddled the re-admission.
	if recErr > baseErr+0.01 {
		t.Errorf("post-recovery error rate %.3f above the baseline %.3f + 0.01", recErr, baseErr)
	}
}

// soakRequest posts one /color body and reports whether it was answered
// with a coloring.
func soakRequest(client *http.Client, url string, body []byte) bool {
	resp, err := client.Post(url+"/color", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var cr ColorResponse
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&cr) == nil
}
