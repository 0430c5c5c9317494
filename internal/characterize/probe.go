package characterize

import (
	"slices"

	"repro/internal/bender"
	"repro/internal/dram"
)

// prober evaluates the §4.1 measurement loop — prepare the site's data
// pattern, run the hammer loop, check the victims — analytically instead
// of through the module's command path. It is the one victim-check path
// of every characterization flow: the ACmin and tAggONmin searches, BER
// and ONOFF, repeatability, the @ACmax flips of Figs. 11/25/26 and the
// retention test.
//
// On the command path a probe's cost is dominated not by the hammer loop
// (already batched) but by re-initializing every site row (8 KiB fills)
// and fetching every victim (8 KiB copies plus exposure bookkeeping) for
// each of the O(log N) bisection probes. The prober keeps one state record per
// touched row — its current contents as a scratch buffer, and the only
// cross-probe state the command path threads between probes: the row's
// last precharge instant (the off time preceding its next first
// activation) and its last charge restore (its retention window), next to
// the bench clock. Victim exposure comes from the closed form
// (dram.AppendHammerExposures) plus the check stream's own
// self-disturbance, and flips materialize through the very same Disturber
// evaluation the module would run — so a probe's outcome is bit-identical
// to executing the commands, at O(site) cost independent of the
// activation count. The golden-report suite and the differential tests
// against the command-path reference (commandpath_test.go) enforce that
// equivalence.
//
// Neither a probe's prepare nor its check scans a row: the model logs the
// byte offset of every flip it commits (disturb.Model.ApplyFlipsLog) into
// the row's record, so a row is its fill byte outside its logged bytes,
// check diffs only those, and prepare resets only those.
//
// The records live in rows, keyed by physical row. Every row a probe
// touches lies within siteReach of the site's location, so the prober
// resolves that window of records into win once per site and each of the
// probe's row lookups is an array index; rows is consulted again only
// when the site changes or for a row outside the window.
//
// A prober owns its site rows' virtual state for the lifetime of a flow,
// starting from a fresh bench: rows the module itself has touched would
// fork history. Each flow creates one prober on its own bench and routes
// every probe through it.
type prober struct {
	b   *bender.Bench
	cfg Config

	rows  map[int]*rowState
	epoch uint64 // current probe; bumped by prepare

	winLo int                        // physical row of win[0]
	win   [2*siteReach + 1]*rowState // rows[winLo+i], or nil until it exists

	// exps and flips are the buffers hammer's exposure deltas and
	// check's flip list reuse from probe to probe.
	exps  []dram.VictimExposure
	flips []bender.Flip

	// checked, when set, sees every check's site and flips as check
	// returns; tests hang their row-state assertions on it.
	checked func(s site, flips []bender.Flip)
}

// siteReach bounds the rows a probe touches around its site's location:
// double-sided victims reach loc±(BlastRadius+1), their fetches disturb
// BlastRadius rows further out, and the window keeps one row of slack.
const siteReach = 2*dram.BlastRadius + 2

// rowState is the prober's view of one row. Its zero value is the state of
// a row the prober has never touched: never precharged (fully recovered),
// never restored (retention window from time 0), no contents (nil
// neighbour data), and no pending exposure.
type rowState struct {
	hasPre      bool
	fill        byte        // see data
	lastPre     dram.TimePS // last PRE instant, if hasPre
	lastRestore dram.TimePS // last charge restore

	// data is the row's current contents: every byte equals fill except
	// possibly those at the offsets in dirty, which lists every byte a
	// flip has touched since data was last reset to fill (unsorted, with
	// repeats, until check normalizes it).
	data  []byte
	dirty []int32

	exp      dram.Exposure // pending exposure within probe expEpoch
	expEpoch uint64
}

func newProber(b *bender.Bench, cfg Config) *prober {
	return &prober{b: b, cfg: cfg, rows: make(map[int]*rowState)}
}

// focus points the row window at the site around loc. The window holds
// the records rows has for it; row fills in the others as it creates
// them.
func (p *prober) focus(loc int) {
	lo := loc - siteReach
	if lo == p.winLo {
		return
	}
	p.winLo = lo
	for i := range p.win {
		p.win[i] = p.rows[lo+i]
	}
}

// row returns the row's state record, creating it at the zero state.
func (p *prober) row(r int) *rowState {
	i := uint(r - p.winLo)
	if i < uint(len(p.win)) && p.win[i] != nil {
		return p.win[i]
	}
	rs := p.rows[r]
	if rs == nil {
		rs = &rowState{}
		p.rows[r] = rs
	}
	if i < uint(len(p.win)) {
		p.win[i] = rs
	}
	return rs
}

// pending returns the row's exposure slot for the current probe; a slot
// left over from an earlier probe reads as zero.
func (p *prober) pending(rs *rowState) *dram.Exposure {
	if rs.expEpoch != p.epoch {
		rs.exp = dram.Exposure{}
		rs.expEpoch = p.epoch
	}
	return &rs.exp
}

// prevOff mirrors the module's per-row off-time rule on the virtual PRE
// history: time since the row's last precharge, capped at the fully
// recovered bound; a row never precharged starts fully recovered.
func (p *prober) prevOff(row int, actAt dram.TimePS) dram.TimePS {
	rs := p.row(row)
	if !rs.hasPre {
		return dram.RecoveredOff
	}
	return min(actAt-rs.lastPre, dram.RecoveredOff)
}

// initRow is the virtual InitRow: contents reset to the fill byte and
// retention window restarted (prepare's epoch bump has already cleared the
// pending exposure). Only the bytes flips have dirtied are rewritten —
// the common no-flip probe leaves the buffer untouched, which is where
// the prepare phase's 8 KiB-per-row cost goes away — unless the fill
// byte itself changes.
func (p *prober) initRow(row int, fillByte byte) {
	rs := p.row(row)
	if rs.data == nil {
		rs.data = make([]byte, p.b.Mod.Geo.RowBytes) // zeroed: fill 0
	}
	if rs.fill != fillByte {
		dram.Fill(rs.data, fillByte)
		rs.fill = fillByte
	} else {
		for _, c := range rs.dirty {
			rs.data[c] = fillByte
		}
	}
	rs.dirty = rs.dirty[:0]
	rs.lastRestore = p.b.Now()
	p.b.Advance(dram.Microsecond) // the command path's per-row setup time
}

// prepare resets the site's rows to the data pattern, victims first, as
// the command path does, and starts a new probe: every pending exposure
// is stale.
func (p *prober) prepare(s site) {
	p.focus(s.loc)
	p.epoch++
	for _, v := range s.victims {
		p.initRow(v, p.cfg.Pattern.VictimByte())
	}
	for _, a := range s.aggressors {
		p.initRow(a, p.cfg.Pattern.AggressorByte())
	}
}

// restore is the virtual charge restore (the module's restoreRow): pending
// exposure plus the retention accumulated since the last restore
// materializes into the scratch contents through the model's own flip
// evaluation, which appends the bytes it flips to the row's dirty list;
// the pending exposure then resets.
func (p *prober) restore(row int, at dram.TimePS) {
	rs := p.row(row)
	pe := p.pending(rs)
	e := *pe
	e.Retention = p.b.Mod.RetentionStress(rs.lastRestore, at)
	if rs.data != nil && (!e.IsZero() || e.Retention > 0) {
		nb := dram.NeighborData{Above: p.row(row + 1).data, Below: p.row(row - 1).data}
		_, rs.dirty = p.b.Model.ApplyFlipsLog(p.b.Bank(), row, rs.data, nb, e, rs.dirty)
	}
	*pe = dram.Exposure{}
	rs.lastRestore = at
}

// hammer applies the loop's effect in closed form: aggressor first-ACT
// restores (phase 1 of HammerBatch), per-victim exposure deltas via the
// shared calculator (phase 2), and the aggressors' final restore/PRE
// bookkeeping (phases 3–4). Aggressor-mutual tail exposure is not
// tracked: the next prepare clears it before anything can observe it.
func (p *prober) hammer(s site, count int, onTime, extraOff dram.TimePS) error {
	spec := dram.HammerSpec{
		Bank: p.b.Bank(), Rows: s.aggressors, Count: count, OnTime: onTime, ExtraOff: extraOff,
	}
	if err := spec.Validate(p.b.Mod); err != nil {
		return err
	}
	at := p.b.Now()
	slot := spec.SlotTime(p.b.Mod.Timing)
	var buf [2]dram.AggSchedule // a site has at most two aggressors
	sched := spec.AppendSchedule(buf[:0])

	for idx, ag := range sched {
		if ag.Acts > 0 {
			p.restore(ag.Row, at+dram.TimePS(idx)*slot)
		}
	}
	p.exps = p.b.Mod.AppendHammerExposures(p.exps[:0], at, spec, p.prevOff)
	for _, ve := range p.exps {
		// Victim exposure is zero after prepare, so the closed-form delta —
		// accumulated inside AppendHammerExposures in executor order — is
		// the row's exposure, bit for bit.
		*p.pending(p.row(ve.Row)) = ve.Exp
	}
	for _, ag := range sched {
		if ag.Acts == 0 {
			continue
		}
		lastAct := at + dram.TimePS(ag.LastSlot)*slot
		rs := p.row(ag.Row)
		*p.pending(rs) = dram.Exposure{}
		rs.lastRestore = lastAct
		rs.hasPre, rs.lastPre = true, lastAct+onTime
	}
	p.b.Advance(dram.TimePS(count) * slot)
	return nil
}

// check fetches every victim virtually, in order: materialize pending
// disturbance, diff against the expected fill, and deliver the fetch's own
// activation disturbance to the neighborhood — the self-disturbance the
// real check stream's ACT/PRE pairs cause, which later-checked victims
// observe. The flips, grouped by victim in check order, live in the
// prober's buffer: they are valid until the next check, and a caller
// that keeps them clones them.
func (p *prober) check(s site) []bender.Flip {
	p.focus(s.loc)
	t := p.b.Mod.Timing
	expect := p.cfg.Pattern.VictimByte()
	all := p.flips[:0]
	for _, v := range s.victims {
		now := p.b.Now()
		p.restore(v, now)
		rs := p.row(v)
		all = rs.appendDiff(all, v, expect)
		// The fetch's PRE delivers one tRAS activation's disturbance,
		// through the shared accrual walk (dram/accrual.go).
		preAt := now + t.TRAS
		off := p.prevOff(v, now)
		p.b.Mod.AccrueOne(v, t.TRAS, off, p.b.Mod.TemperatureAt(preAt),
			func(victim int, above bool, h, pr float64) {
				e := p.pending(p.row(victim))
				if above {
					e.HammerAbove += h
					e.PressAbove += pr
				} else {
					e.HammerBelow += h
					e.PressBelow += pr
				}
			})
		rs.hasPre, rs.lastPre = true, preAt
		p.b.Advance(t.TRAS + t.TRP)
	}
	p.flips = all
	if p.checked != nil {
		p.checked(s, all)
	}
	return all
}

// appendDiff appends a flip for every bit of the row's contents that
// differs from the expected fill byte, in (byte, bit) order. Only the
// logged bytes can differ from the row's own fill, so when that fill is
// the expected byte it sorts and de-duplicates the log and diffs those
// bytes alone; a byte a flip dirtied and a later flip restored diffs to
// nothing. A row holding another fill (another site's prepare refilled
// it) is diffed byte by byte.
func (rs *rowState) appendDiff(all []bender.Flip, row int, expect byte) []bender.Flip {
	if rs.fill != expect {
		for i, got := range rs.data {
			all = appendByteDiff(all, row, i, got, expect)
		}
		return all
	}
	slices.Sort(rs.dirty)
	rs.dirty = slices.Compact(rs.dirty)
	for _, c := range rs.dirty {
		all = appendByteDiff(all, row, int(c), rs.data[c], expect)
	}
	return all
}

// appendByteDiff appends a flip for every bit in which got differs from
// expect, lowest bit first.
func appendByteDiff(all []bender.Flip, row, i int, got, expect byte) []bender.Flip {
	diff := got ^ expect
	for bit := uint8(0); diff != 0 && bit < 8; bit++ {
		if diff&(1<<bit) != 0 {
			all = append(all, bender.Flip{
				LogicalRow: row, // physical coordinates
				Byte:       i,
				Bit:        bit,
				From:       expect&(1<<bit) != 0,
			})
		}
	}
	return all
}

// probe runs one full prepare → hammer → check measurement. Its flips
// are check's: valid until the next probe.
func (p *prober) probe(s site, count int, onTime, extraOff dram.TimePS) ([]bender.Flip, error) {
	p.prepare(s)
	if err := p.hammer(s, count, onTime, extraOff); err != nil {
		return nil, err
	}
	return p.check(s), nil
}
