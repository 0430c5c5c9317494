package fabric

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// ShardRequest is the /v1/shard wire request: the normalized run
// options plus the plan-level shard key (and sub key for one unit of
// a declared split) — everything a peer needs to rebuild the same
// plan from its own registry — and the coordinator's expected cache
// address so build skew between fleet members is detected instead of
// silently computing the wrong shard.
type ShardRequest struct {
	Experiment string   `json:"experiment"`
	Scale      float64  `json:"scale"`
	Seed       uint64   `json:"seed"`
	Modules    []string `json:"modules,omitempty"`
	Shard      string   `json:"shard"`
	Sub        string   `json:"sub,omitempty"`
	Key        string   `json:"key"`
}

// Sentinel errors for the serving layer's status mapping: unknown
// experiment/shard dispatches answer 404, key skew answers 409, options
// the planner rejects answer 400.
var (
	ErrUnknownShard = errors.New("unknown shard")
	ErrKeySkew      = errors.New("shard key mismatch")
	ErrBadOptions   = errors.New("bad shard options")
)

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// ServeShard answers one coordinator dispatch from this process's
// registry and engine: the plan is rebuilt from the request's
// normalized options, the addressed shard (or sub-shard) located, the
// derived cache address verified against the coordinator's, and the
// shard resolved through the engine's local tiers and pool
// (engine.ResolveLocal — which never re-dispatches, so fabric
// topologies cannot form forwarding loops). tier names the local tier
// that answered, "" when this call executed the shard.
func ServeShard(eng *engine.Engine, req ShardRequest) (v any, tier string, err error) {
	p, err := core.PlanFor(req.Experiment, core.Options{Scale: req.Scale, Seed: req.Seed, Modules: req.Modules})
	if err != nil {
		if !errors.Is(err, core.ErrUnknownExperiment) {
			err = fmt.Errorf("%w: %w", ErrBadOptions, err)
		}
		return nil, "", err
	}
	for _, s := range p.Shards {
		if s.Key != req.Shard {
			continue
		}
		addr := engine.Key(p.Experiment, p.Fingerprint, s.Key)
		run := s
		if req.Sub != "" {
			found := false
			for _, sub := range s.Subs {
				if sub.Key == req.Sub {
					run = engine.Shard{Key: s.Key + "/" + sub.Key, Run: sub.Run}
					addr = engine.SubKey(addr, sub.Key)
					found = true
					break
				}
			}
			if !found {
				return nil, "", fmt.Errorf("%w: sub-shard %q of %q in %s", ErrUnknownShard, req.Sub, req.Shard, req.Experiment)
			}
		}
		if req.Key != addr {
			return nil, "", fmt.Errorf("%w: %q resolves to %s here, coordinator expects %s (mismatched builds in the fleet?)",
				ErrKeySkew, req.Shard, short(addr), short(req.Key))
		}
		return eng.ResolveLocal(addr, run, p.Experiment)
	}
	return nil, "", fmt.Errorf("%w: %q in %s", ErrUnknownShard, req.Shard, req.Experiment)
}
