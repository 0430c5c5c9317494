// Package scenario is the attack-scenario subsystem: composable,
// deterministic access-pattern generators played against a simulated DRAM
// bank while a mitigation observes every activation online.
//
// A Spec describes one pattern family — single-, double-, or many-sided
// RowHammer, pure RowPress dwells at a configurable tAggON, and the
// combined patterns of "An Experimental Characterization of Combined
// RowHammer and RowPress Read Disturbance in Modern DRAM Chips"
// (arXiv:2406.13080) that interleave hammer bursts at tRAS with long
// press dwells — optionally decorated with benign decoy activations that
// flood sampler-based defenses (the U-TRR-style bypass). The playback
// harness (play.go) turns a Spec into a trace on internal/dram's command
// path, wires a mitigate.Mitigation into the activation stream, and
// measures bitflips, minimum exposure to first flip, and the mitigation's
// preventive-refresh overhead.
package scenario

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/dram"
)

// Kind selects the slot mix of a scenario.
type Kind int

// The three pattern families.
const (
	// Hammer: every activation opens the row for tRAS (classic RowHammer).
	Hammer Kind = iota
	// Press: every activation is a dwell of TAggON (pure RowPress).
	Press
	// Combined: cycles of Burst tRAS-activations followed by one TAggON
	// dwell (the interleaved patterns of arXiv:2406.13080).
	Combined
)

// String returns the family label.
func (k Kind) String() string {
	switch k {
	case Hammer:
		return "hammer"
	case Press:
		return "press"
	case Combined:
		return "combined"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec is one composable attack scenario. The zero value is not valid;
// scenarios are built literally (see Catalog) or field-by-field and
// checked with Validate.
type Spec struct {
	Name string `json:"name"`
	Kind Kind   `json:"-"`

	// Sides is the aggressor-row count: 1 = single-sided, 2 =
	// double-sided, >2 = many-sided (aggressors ring the victim site,
	// alternating below/above).
	Sides int `json:"sides"`

	// TAggON is the dwell open time of Press and Combined slots. Hammer
	// slots always open for tRAS.
	TAggON dram.TimePS `json:"taggon_ps,omitempty"`

	// Burst is the number of tRAS hammer slots per dwell in a Combined
	// scenario (cycle length Burst+1). Ignored for Hammer and Press.
	Burst int `json:"burst,omitempty"`

	// ExtraOff adds idle time after every slot's precharge (the
	// RowPress-ONOFF pattern of §5.4: longer off time amplifies the
	// per-activation RowHammer damage).
	ExtraOff dram.TimePS `json:"extra_off_ps,omitempty"`

	// DecoyRows interleaves benign activations of distant decoy rows at
	// tRAS. Decoys add no damage near the victims but are observed by the
	// mitigation — sampler-based defenses (TRR) evict real aggressors,
	// and probabilistic ones (PARA) spend refreshes on harmless
	// neighborhoods. With DecoyEvery == 0 the decoy burst is synchronized
	// with the refresh stream (it lands just before each tREFI boundary,
	// the U-TRR-style sampler bypass); with DecoyEvery > 0 it instead
	// runs after every DecoyEvery aggressor slots, unsynchronized.
	DecoyRows  int `json:"decoy_rows,omitempty"`
	DecoyEvery int `json:"decoy_every,omitempty"`
}

// KindName exposes the family label for JSON/CSV listings.
func (s Spec) KindName() string { return s.Kind.String() }

// Validate checks the spec against the module timing.
func (s Spec) Validate(t dram.Timing) error {
	switch {
	case s.Name == "":
		return fmt.Errorf("scenario: spec has no name")
	case s.Sides < 1 || s.Sides > 8:
		return fmt.Errorf("scenario %s: Sides must be in [1,8], got %d", s.Name, s.Sides)
	case s.ExtraOff < 0:
		return fmt.Errorf("scenario %s: negative ExtraOff", s.Name)
	case s.ExtraOff > t.TREFW:
		// The player walks every tREFI of a slot's dwell and off phase,
		// so an unbounded slot is an unbounded loop (and overflows the
		// clock near MaxInt64).
		return fmt.Errorf("scenario %s: ExtraOff %s above tREFW %s",
			s.Name, dram.FormatTime(s.ExtraOff), dram.FormatTime(t.TREFW))
	case s.DecoyRows < 0 || s.DecoyEvery < 0:
		return fmt.Errorf("scenario %s: negative decoy parameters", s.Name)
	case s.DecoyEvery > 0 && s.DecoyRows == 0:
		return fmt.Errorf("scenario %s: DecoyEvery needs DecoyRows", s.Name)
	case s.DecoyRows > maxDecoyRows:
		return fmt.Errorf("scenario %s: at most %d decoy rows", s.Name, maxDecoyRows)
	}
	switch s.Kind {
	case Hammer:
		// TAggON ignored; document the invariant loudly if set wrong.
		if s.TAggON != 0 && s.TAggON != t.TRAS {
			return fmt.Errorf("scenario %s: hammer scenarios pin tAggON to tRAS", s.Name)
		}
	case Press, Combined:
		if s.TAggON < t.TRAS || s.TAggON > t.TREFW {
			return fmt.Errorf("scenario %s: TAggON %s outside [tRAS %s, tREFW %s]",
				s.Name, dram.FormatTime(s.TAggON), dram.FormatTime(t.TRAS), dram.FormatTime(t.TREFW))
		}
		if s.Kind == Combined && s.Burst < 1 {
			return fmt.Errorf("scenario %s: combined scenarios need Burst ≥ 1", s.Name)
		}
	default:
		return fmt.Errorf("scenario %s: unknown kind %d", s.Name, int(s.Kind))
	}
	return nil
}

// aggressorOnTime returns the open time of the j-th aggressor slot.
func (s Spec) aggressorOnTime(j int, t dram.Timing) dram.TimePS {
	switch s.Kind {
	case Press:
		return s.TAggON
	case Combined:
		if j%(s.Burst+1) == s.Burst {
			return s.TAggON
		}
	}
	return t.TRAS
}

// Pattern renders the one-line structural description used in reports.
func (s Spec) Pattern() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d-sided %s", s.Sides, s.Kind)
	switch s.Kind {
	case Press:
		fmt.Fprintf(&b, " tAggON=%s", dram.FormatTime(s.TAggON))
	case Combined:
		fmt.Fprintf(&b, " burst=%d dwell=%s", s.Burst, dram.FormatTime(s.TAggON))
	}
	if s.ExtraOff > 0 {
		fmt.Fprintf(&b, " off+%s", dram.FormatTime(s.ExtraOff))
	}
	if s.DecoyRows > 0 {
		if s.DecoyEvery > 0 {
			fmt.Fprintf(&b, " +%d decoys/%d", s.DecoyRows, s.DecoyEvery)
		} else {
			fmt.Fprintf(&b, " +%d decoys/REF-sync", s.DecoyRows)
		}
	}
	return b.String()
}

// maxDecoyRows bounds the decoy pool so decoy and site row regions never
// overlap (see sitePlan).
const maxDecoyRows = 32

// catalog is the standard scenario matrix, built once per process.
var catalog = sync.OnceValue(func() []Spec {
	const ns = dram.Nanosecond
	return []Spec{
		{Name: "ss-hammer", Kind: Hammer, Sides: 1},
		{Name: "ds-hammer", Kind: Hammer, Sides: 2},
		{Name: "ms-hammer-8", Kind: Hammer, Sides: 8},
		{Name: "ss-hammer-onoff", Kind: Hammer, Sides: 1, ExtraOff: 1536 * ns},
		{Name: "ss-press-70us", Kind: Press, Sides: 1, TAggON: 70200 * ns},
		{Name: "ds-press-7.8us", Kind: Press, Sides: 2, TAggON: 7800 * ns},
		{Name: "combined-b2-636ns", Kind: Combined, Sides: 2, TAggON: 636 * ns, Burst: 2},
		{Name: "combined-b4-7.8us", Kind: Combined, Sides: 2, TAggON: 7800 * ns, Burst: 4},
		{Name: "combined-b16-7.8us", Kind: Combined, Sides: 2, TAggON: 7800 * ns, Burst: 16},
		{Name: "combined-b4-70us", Kind: Combined, Sides: 2, TAggON: 70200 * ns, Burst: 4},
		{Name: "ds-hammer-decoy", Kind: Hammer, Sides: 2, DecoyRows: 16},
		{Name: "combined-b4-7.8us-decoy", Kind: Combined, Sides: 2, TAggON: 7800 * ns, Burst: 4,
			DecoyRows: 16},
	}
})

// Catalog returns the standard scenario matrix: the pure patterns at
// both ends of the hammer-count × row-open-time plane, combined
// interleavings across it, the ONOFF off-time variant, and the decoy
// (TRR-bypass) decorations. Every entry is registered as shards of the
// scenario experiments in internal/core and listed by `rowpress
// scenarios` and GET /v1/scenarios. The slice is the caller's own copy.
func Catalog() []Spec { return slices.Clone(catalog()) }

// ByName returns the catalog scenario with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range catalog() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the catalog scenario names in catalog order.
func Names() []string {
	cat := catalog()
	out := make([]string, len(cat))
	for i, s := range cat {
		out[i] = s.Name
	}
	return out
}
