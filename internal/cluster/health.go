package cluster

// Health sweeps: once per interval every backend's /healthz is probed
// concurrently. A probe both decides reachability and collects the
// backend-identity payload (variant, vertex count, checksum) the
// majority vote runs over — backends disagreeing with the majority are
// marked mismatched and excluded from routing until they agree again
// (typically after an operator reloads the right index into them).
//
// Generation is deliberately excluded from the vote: replicas reloaded
// at different times legitimately differ in generation while serving
// identical content, which is exactly what the checksum certifies.

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"pll/internal/wire"
)

func (c *Coordinator) healthLoop() {
	defer close(c.healthDone)
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopHealth:
			return
		case <-t.C:
			c.healthSweep()
		}
	}
}

// healthSweep probes every backend once and recomputes mismatch flags
// from the majority identity among reachable backends.
func (c *Coordinator) healthSweep() {
	var wg sync.WaitGroup
	for _, b := range c.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			c.probe(b)
		}(b)
	}
	wg.Wait()

	// Majority vote over the identities of reachable backends. Ties
	// break toward the identity of the earliest-configured backend, so
	// a 1-vs-1 split keeps the pool deterministic rather than flapping.
	votes := make(map[identity]int)
	order := make(map[identity]int)
	for i, b := range c.backends {
		if !b.healthy.Load() {
			continue
		}
		id, _ := b.identitySnapshot()
		votes[id]++
		if _, seen := order[id]; !seen {
			order[id] = i
		}
	}
	var best identity
	bestVotes := 0
	for id, n := range votes {
		if n > bestVotes || (n == bestVotes && order[id] < order[best]) {
			best, bestVotes = id, n
		}
	}
	for _, b := range c.backends {
		if !b.healthy.Load() {
			// Unreachable backends keep their previous mismatch verdict,
			// so a pool member that died still counts in /healthz's pool
			// and the pool reads degraded rather than ok.
			continue
		}
		id, _ := b.identitySnapshot()
		b.mismatch.Store(bestVotes > 0 && id != best)
	}
}

// probe runs one /healthz round trip against a backend, updating its
// reachability flag and identity snapshot. Probe failures do not feed
// the circuit breaker: the breaker tracks request traffic, the health
// flag tracks the probe channel, and either alone can take a backend
// out of rotation.
func (c *Coordinator) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		b.healthy.Store(false)
		return
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.healthy.Store(false)
		return
	}
	defer resp.Body.Close()
	var hp wire.Health
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&hp) != nil {
		b.healthy.Store(false)
		return
	}
	b.setIdentity(identity{Variant: hp.Variant, Vertices: hp.Vertices, Checksum: hp.Checksum}, hp.Generation)
	b.healthy.Store(true)
}
