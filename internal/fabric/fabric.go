// Package fabric is the distributed shard tier: a coordinator-side
// client that consistent-hashes engine shard addresses across a
// configured peer set of rowpressd daemons and dispatches the keys it
// does not own over the existing /v1 surface as gob shard payloads,
// and the peer-side resolver that answers those dispatches from the
// peer's own cache tiers and worker pool.
//
// The client implements engine.RemoteTier, so it slots beneath the
// local mem/disk tiers and above local execution: single-flight
// dedup, sub-shard splits, and unit-level warm hits all work
// unchanged across the wire. Failure handling is part of the design:
// bounded retries with exponential backoff per peer, a per-peer
// circuit breaker that converts a down peer into silent local
// execution, and hedged requests — when the owning peer is slower
// than its own recent latency quantile, a speculative duplicate is
// raced against the next live peer and the first answer wins. Every
// path degrades to local execution, so a degraded fleet is slower,
// never wrong.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// TierHeader is the response header a peer sets on /v1/shard answers,
// naming the tier that answered on the peer ("mem", "disk", "join",
// or "execute"). The coordinator uses it to count warm remote hits —
// the shared-cache property working — separately from remote compute.
const TierHeader = "X-Fabric-Tier"

// Config parameterizes a coordinator's fabric client.
type Config struct {
	Peers []string // peer base URLs, e.g. http://10.0.0.2:8080; blank entries are skipped
	// Retries is the extra attempts per peer after the first: 0 selects
	// the default of 1, < 0 means none. Tests that feed a peer bad
	// answers set it < 0, so a failing attempt does not add a
	// retryBackoff sleep per retry.
	Retries int
}

// Fixed dispatch tuning: ring points per member, the first retry delay
// (doubling per retry), the consecutive failures that open a peer's
// circuit and how long it stays open before a retrial, the
// peer-latency quantile that arms the hedge timer and its floor, the
// per-attempt HTTP timeout, and the concurrent dispatch bound per peer.
const (
	virtualNodes    = 64
	retryBackoff    = 25 * time.Millisecond
	failureLimit    = 3
	cooldown        = 5 * time.Second
	hedgeQuantile   = 0.95
	hedgeMin        = 20 * time.Millisecond
	attemptTimeout  = 2 * time.Minute
	inFlightPerPeer = 4
)

// coldHedgeDelay arms the hedge timer before a peer has enough
// latency samples for a meaningful quantile.
const coldHedgeDelay = 100 * time.Millisecond

// hedgeMinSamples is the observation count below which the quantile
// is considered cold.
const hedgeMinSamples = 16

// errPermanent marks responses retries cannot fix (key skew, unknown
// experiment or shard): the attempt loop stops immediately.
var errPermanent = errors.New("permanent peer error")

// peer is the client-side state for one configured peer.
type peer struct {
	url  string
	hist *obs.Histogram // successful round-trip latencies

	mu          sync.Mutex
	consecFails int
	downUntil   time.Time

	dispatches uint64 // attempts started (retries included)
	hits       uint64 // successful answers
	warmHits   uint64 // answers served from the peer's mem/disk tiers
	errors     uint64 // failed attempts
	cancelled  uint64 // attempts abandoned: the dispatch was answered elsewhere
	retries    uint64 // attempts beyond the first per dispatch
	hedges     uint64 // speculative duplicates fired against this peer's slowness
	hedgeWins  uint64 // dispatches where the hedge answered first
}

func (p *peer) up(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !now.Before(p.downUntil)
}

func (p *peer) fail(now time.Time) {
	p.mu.Lock()
	p.errors++
	p.consecFails++
	if p.consecFails >= failureLimit {
		p.downUntil = now.Add(cooldown)
	}
	p.mu.Unlock()
}

// Client is the coordinator side of the fabric. It is safe for
// concurrent use and implements engine.RemoteTier.
type Client struct {
	retries int
	ring    *ring
	peers   []*peer
	http    *http.Client
	sem     chan struct{}
}

// New builds a client over the configured peer set. At least one peer
// is required — a fabric of one process is just a local engine.
func New(cfg Config) (*Client, error) {
	var urls []string
	var peers []*peer
	for _, u := range cfg.Peers {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		urls = append(urls, u)
		peers = append(peers, &peer{url: u, hist: obs.NewLatencyHistogram()})
	}
	if len(peers) == 0 {
		return nil, errors.New("fabric: no peers configured")
	}
	retries := max(cfg.Retries, 0)
	if cfg.Retries == 0 {
		retries = 1
	}
	return &Client{
		retries: retries,
		ring:    newRing(urls, virtualNodes),
		peers:   peers,
		http:    &http.Client{Timeout: attemptTimeout},
		sem:     make(chan struct{}, inFlightPerPeer*len(peers)),
	}, nil
}

// Peers returns the normalized peer URLs in configuration order.
func (c *Client) Peers() []string {
	out := make([]string, len(c.peers))
	for i, p := range c.peers {
		out[i] = p.url
	}
	return out
}

// attemptResult is one peer attempt's outcome.
type attemptResult struct {
	v     any
	peer  *peer
	hedge bool
	err   error
}

// Resolve implements engine.RemoteTier: it consistent-hashes the
// shard address, and when a live remote peer owns it, dispatches the
// shard there — retrying with backoff, hedging against the next live
// peer when the owner is slower than its recent latency quantile, and
// returning ok=false (execute locally) when the key is locally owned
// or the owner's circuit is open. A non-nil error means every
// attempted peer failed; the engine counts it and executes locally.
// Returning cancels the attempt still in flight, if any: a hedged
// duplicate's request ends with the run it lost, and the cancellation
// is not counted against its peer.
func (c *Client) Resolve(key string, req engine.RemoteRequest) (v any, peerURL string, ok bool, err error) {
	o, isOpts := req.Meta.(core.Options)
	if !isOpts {
		return nil, "", false, nil
	}
	owner := c.ring.owner(key)
	if owner == localMember {
		return nil, "", false, nil
	}
	pr := c.peers[owner]
	if !pr.up(time.Now()) {
		return nil, "", false, nil
	}

	c.sem <- struct{}{}
	defer func() { <-c.sem }()

	body, merr := json.Marshal(ShardRequest{
		Experiment: req.Experiment,
		Scale:      o.Scale,
		Seed:       o.Seed,
		Modules:    o.Modules,
		Shard:      req.Shard,
		Sub:        req.Sub,
		Key:        key,
	})
	if merr != nil {
		return nil, "", false, merr
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make(chan attemptResult, 2) // buffered: a late loser never leaks its goroutine
	go func() { results <- c.attempt(ctx, pr, body) }()

	timer := time.NewTimer(c.hedgeDelay(pr))
	defer timer.Stop()

	launchHedge := func() bool {
		alt := c.nextUp(owner)
		if alt == nil {
			return false
		}
		pr.mu.Lock()
		pr.hedges++
		pr.mu.Unlock()
		go func() {
			r := c.attempt(ctx, alt, body)
			r.hedge = true
			results <- r
		}()
		return true
	}

	outstanding, hedged := 1, false
	var firstErr error
	for outstanding > 0 {
		select {
		case r := <-results:
			outstanding--
			if r.err == nil {
				if r.hedge {
					pr.mu.Lock()
					pr.hedgeWins++
					pr.mu.Unlock()
				}
				return r.v, r.peer.url, true, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			// The owner failed outright before the hedge timer fired:
			// fail over to the next live peer immediately.
			if !hedged && outstanding == 0 && launchHedge() {
				hedged = true
				outstanding++
			}
		case <-timer.C:
			if !hedged && launchHedge() {
				hedged = true
				outstanding++
			}
		}
	}
	return nil, "", false, firstErr
}

// hedgeDelay derives the hedge timer from the peer's own recent
// latency distribution, floored at hedgeMin; before the histogram has
// enough samples a fixed cold-start delay applies.
func (c *Client) hedgeDelay(pr *peer) time.Duration {
	s := pr.hist.Snapshot()
	if s.Count < hedgeMinSamples {
		return coldHedgeDelay
	}
	return max(s.Quantile(hedgeQuantile), hedgeMin)
}

// nextUp returns the first live peer after owner in index order, or
// nil when no other peer is live.
func (c *Client) nextUp(owner int) *peer {
	now := time.Now()
	for i := 1; i < len(c.peers); i++ {
		p := c.peers[(owner+i)%len(c.peers)]
		if p.up(now) {
			return p
		}
	}
	return nil
}

// attempt runs the bounded retry loop against one peer until it
// answers, fails for good, or ctx is cancelled. A cancelled attempt
// lost a race the dispatch already won elsewhere: it is not the peer's
// failure.
func (c *Client) attempt(ctx context.Context, pr *peer, body []byte) attemptResult {
	var lastErr error
	for try := 0; try <= c.retries; try++ {
		if try > 0 {
			pr.mu.Lock()
			pr.retries++
			pr.mu.Unlock()
			backoff := time.NewTimer(retryBackoff << (try - 1))
			select {
			case <-ctx.Done():
				backoff.Stop()
				return attemptResult{peer: pr, err: ctx.Err()}
			case <-backoff.C:
			}
		}
		pr.mu.Lock()
		pr.dispatches++
		pr.mu.Unlock()
		t0 := time.Now()
		v, tier, err := c.post(ctx, pr.url, body)
		if err == nil {
			pr.hist.Observe(time.Since(t0))
			pr.mu.Lock()
			pr.consecFails = 0
			pr.hits++
			if tier == engine.TierMem || tier == engine.TierDisk {
				pr.warmHits++
			}
			pr.mu.Unlock()
			return attemptResult{v: v, peer: pr}
		}
		if ctx.Err() != nil {
			pr.mu.Lock()
			pr.cancelled++
			pr.mu.Unlock()
			return attemptResult{peer: pr, err: ctx.Err()}
		}
		lastErr = err
		pr.fail(time.Now())
		if errors.Is(err, errPermanent) || !pr.up(time.Now()) {
			break
		}
	}
	return attemptResult{peer: pr, err: lastErr}
}

// post performs one /v1/shard round trip, abandoned when ctx is
// cancelled.
func (c *Client) post(ctx context.Context, base string, body []byte) (v any, tier string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("fabric: peer %s: %s: %s", base, resp.Status, strings.TrimSpace(string(msg)))
		// Key skew or an unknown experiment/shard is a build or
		// configuration mismatch; retries cannot fix it.
		if resp.StatusCode == http.StatusConflict || resp.StatusCode == http.StatusNotFound {
			err = fmt.Errorf("%w: %w", errPermanent, err)
		}
		return nil, "", err
	}
	v, err = engine.DecodePayload(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("fabric: peer %s: decode payload: %w", base, err)
	}
	return v, resp.Header.Get(TierHeader), nil
}

// PeerStatus is one peer's health as seen from the coordinator: a
// live probe of the peer's liveness endpoint plus the client-side
// circuit state.
type PeerStatus struct {
	URL         string `json:"url"`
	Reachable   bool   `json:"reachable"`
	Error       string `json:"error,omitempty"`
	CircuitOpen bool   `json:"circuit_open"`
}

// Status probes every peer's /healthz concurrently with the given
// timeout. The serving layer's readiness check uses it to report a
// degraded (but still correct, via local fallback) coordinator.
func (c *Client) Status(timeout time.Duration) []PeerStatus {
	if timeout <= 0 {
		timeout = time.Second
	}
	probe := &http.Client{Timeout: timeout}
	out := make([]PeerStatus, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			st := PeerStatus{URL: p.url, CircuitOpen: !p.up(time.Now())}
			resp, err := probe.Get(p.url + "/healthz")
			if err != nil {
				st.Error = err.Error()
			} else {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					st.Reachable = true
				} else {
					st.Error = resp.Status
				}
			}
			out[i] = st
		}(i, p)
	}
	wg.Wait()
	return out
}

// PeerMetrics is the cumulative client-side view of one peer. Every
// dispatch ends as exactly one of Hits, Errors and Cancelled.
type PeerMetrics struct {
	URL         string  `json:"url"`
	Dispatches  uint64  `json:"dispatches"`
	Hits        uint64  `json:"hits"`
	WarmHits    uint64  `json:"warm_hits"`
	Errors      uint64  `json:"errors"`
	Cancelled   uint64  `json:"cancelled"`
	Retries     uint64  `json:"retries"`
	Hedges      uint64  `json:"hedges"`
	HedgeWins   uint64  `json:"hedge_wins"`
	CircuitOpen bool    `json:"circuit_open"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
}

// Metrics is the aggregate client-side fabric view.
type Metrics struct {
	Peers      int           `json:"peers"`
	Dispatches uint64        `json:"dispatches"`
	Hits       uint64        `json:"hits"`
	WarmHits   uint64        `json:"warm_hits"`
	Errors     uint64        `json:"errors"`
	Cancelled  uint64        `json:"cancelled"`
	Retries    uint64        `json:"retries"`
	Hedges     uint64        `json:"hedges"`
	HedgeWins  uint64        `json:"hedge_wins"`
	PerPeer    []PeerMetrics `json:"per_peer"`
}

// Metrics snapshots the per-peer counters.
func (c *Client) Metrics() Metrics {
	m := Metrics{Peers: len(c.peers), PerPeer: make([]PeerMetrics, len(c.peers))}
	now := time.Now()
	for i, p := range c.peers {
		s := p.hist.Snapshot()
		p.mu.Lock()
		pm := PeerMetrics{
			URL:         p.url,
			Dispatches:  p.dispatches,
			Hits:        p.hits,
			WarmHits:    p.warmHits,
			Errors:      p.errors,
			Cancelled:   p.cancelled,
			Retries:     p.retries,
			Hedges:      p.hedges,
			HedgeWins:   p.hedgeWins,
			CircuitOpen: now.Before(p.downUntil),
		}
		p.mu.Unlock()
		pm.P50MS = float64(s.Quantile(0.50)) / float64(time.Millisecond)
		pm.P95MS = float64(s.Quantile(0.95)) / float64(time.Millisecond)
		m.PerPeer[i] = pm
		m.Dispatches += pm.Dispatches
		m.Hits += pm.Hits
		m.WarmHits += pm.WarmHits
		m.Errors += pm.Errors
		m.Cancelled += pm.Cancelled
		m.Retries += pm.Retries
		m.Hedges += pm.Hedges
		m.HedgeWins += pm.HedgeWins
	}
	return m
}
