package dram

import (
	"bytes"
	"sort"
)

// RecoveredOff is the row-off time assumed for an aggressor's first
// activation (or any activation after a very long idle period): long enough
// that all transient disturbance from earlier activity has fully recovered.
// Exported so replay-free probe harnesses can thread the same first-
// activation semantics as the command path.
const RecoveredOff = 10 * Millisecond

// recoveredOff is the internal alias predating the export.
const recoveredOff = RecoveredOff

// bankState is the per-bank command FSM (§2.2): a bank is either precharged
// (idle) or has exactly one open row.
type bankState struct {
	open      bool
	openRow   int
	openedAt  TimePS
	lastPreAt TimePS // completion time of the last PRE
	hasPre    bool
}

// rowState is the per-row storage: contents plus accumulated disturbance
// since the last charge restore. Rows live in a dense per-bank array (see
// Module.rows); present distinguishes rows the command path has touched
// from pristine zero-value entries, replacing the sparse map membership the
// module used to rely on.
type rowState struct {
	data        []byte // nil until first write
	exp         Exposure
	lastRestore TimePS
	lastPreAt   TimePS // when this row was last closed (for off-time tracking)
	lastPreSet  bool
	present     bool   // the command path has state for this row
	shared      bool   // data is shared with a journal entry (see snapshot.go)
	epoch       uint32 // checkpoint journal stamp (see snapshot.go)
}

// tempPoint is one step of the temperature schedule. accel caches
// RetentionAccel(tempC), which is pure, so the retention integral on every
// ACT multiplies by it instead of re-evaluating the model.
type tempPoint struct {
	at    TimePS
	tempC float64
	accel float64
}

// Module is a simulated DDR4 DRAM module. All commands carry explicit
// timestamps supplied by the caller (the testing infrastructure or a memory
// controller); the module validates timing and maintains cell state.
//
// Module is not safe for concurrent use; each experiment owns its module.
type Module struct {
	Geo    Geometry
	Timing Timing

	dist  Disturber
	banks []bankState

	// rows holds one dense exposure window per bank, allocated lazily on
	// the bank's first touch. The dense layout keeps the PRE-path accrual
	// (up to 2×BlastRadius victim updates per precharge) allocation- and
	// hash-free: a victim update is one bounds-checked index instead of a
	// map lookup plus a possible *rowState allocation. At the experiment
	// geometries (≤ 4096 rows/bank) a fully dense window costs ≲ 400 KiB
	// per touched bank, far below what the old per-victim allocations
	// churned through a long hammer run.
	rows [][]rowState

	temps     []tempPoint // non-decreasing in time
	lastCmdAt TimePS

	journal journal // active checkpoint state (see snapshot.go)

	fold *foldScratch // run folding's buffers, made by the first fold (run.go)

	// Stats counters, exported via Counters().
	acts, pres uint64
}

// Counters reports cumulative command counts (ACT, PRE).
type Counters struct {
	Activates, Precharges uint64
}

// NewModule builds a module with the given geometry and timing, initial
// temperature tempC, and disturbance model. It panics on invalid geometry,
// since that is a programming error rather than a runtime condition.
func NewModule(geo Geometry, timing Timing, tempC float64, dist Disturber) *Module {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	if dist == nil {
		dist = NopDisturber{}
	}
	return &Module{
		Geo:    geo,
		Timing: timing,
		dist:   dist,
		banks:  make([]bankState, geo.Banks),
		rows:   make([][]rowState, geo.Banks),
		temps:  []tempPoint{{at: 0, tempC: tempC, accel: dist.RetentionAccel(tempC)}},
	}
}

// Counters returns the command counters.
func (m *Module) Counters() Counters {
	return Counters{m.acts, m.pres}
}

// SetTemperature records a chip temperature change effective at time at.
// The thermal controller (internal/thermal) drives this.
func (m *Module) SetTemperature(at TimePS, tempC float64) {
	last := m.temps[len(m.temps)-1]
	if at < last.at {
		at = last.at
	}
	if last.tempC == tempC {
		return
	}
	m.temps = append(m.temps, tempPoint{at: at, tempC: tempC, accel: m.dist.RetentionAccel(tempC)})
}

// tempSegment returns the index of the temperature segment covering time
// at: the last point with p.at <= at, or 0 when at precedes the schedule.
// Binary search keeps long thermal traces off the per-command critical
// path (TemperatureAt runs on every PRE).
func (m *Module) tempSegment(at TimePS) int {
	// Fast path: most commands land in the latest segment.
	if n := len(m.temps); n == 1 || m.temps[n-1].at <= at {
		return n - 1
	}
	i := sort.Search(len(m.temps), func(i int) bool { return m.temps[i].at > at })
	if i == 0 {
		return 0
	}
	return i - 1
}

// TemperatureAt returns the chip temperature at time at.
func (m *Module) TemperatureAt(at TimePS) float64 {
	return m.temps[m.tempSegment(at)].tempC
}

// RetentionStress integrates RetentionAccel(T(t)) dt (seconds) over
// [from, to] across the temperature schedule — the retention exposure a
// row accumulates between charge restores. It reads the schedule without
// modifying anything; pure probe harnesses use it to evaluate candidate
// stop points analytically.
func (m *Module) RetentionStress(from, to TimePS) float64 {
	return m.retentionStress(from, to)
}

// retentionStress integrates RetentionAccel(T(t)) dt (seconds) over
// [from, to] across the temperature schedule.
func (m *Module) retentionStress(from, to TimePS) float64 {
	if to <= from {
		return 0
	}
	var stress float64
	cur := from
	seg := m.tempSegment(from)
	accel := m.temps[seg].accel
	// Segments ending at or before cur contribute nothing; binary-search
	// the first boundary past cur instead of scanning the whole schedule.
	for i := seg + 1; i < len(m.temps); i++ {
		p := m.temps[i]
		if p.at >= to {
			break
		}
		stress += Seconds(p.at-cur) * accel
		cur, accel = p.at, p.accel
	}
	stress += Seconds(to-cur) * accel
	return stress
}

func (m *Module) checkBank(bank int) error {
	if bank < 0 || bank >= m.Geo.Banks {
		return &AddressError{What: "bank", Value: bank, Limit: m.Geo.Banks}
	}
	return nil
}

func (m *Module) checkRow(row int) error {
	if row < 0 || row >= m.Geo.RowsPerBank {
		return &AddressError{What: "row", Value: row, Limit: m.Geo.RowsPerBank}
	}
	return nil
}

func (m *Module) advance(at TimePS) {
	if at > m.lastCmdAt {
		m.lastCmdAt = at
	}
}

// Now returns the timestamp of the latest command the module has seen.
func (m *Module) Now() TimePS { return m.lastCmdAt }

// bankRows returns the dense row window of a bank, allocating it on first
// touch.
func (m *Module) bankRows(bank int) []rowState {
	rows := m.rows[bank]
	if rows == nil {
		rows = make([]rowState, m.Geo.RowsPerBank)
		m.rows[bank] = rows
	}
	return rows
}

// row returns the mutable state of (bank, row), marking the row present
// and journaling its prior state when a checkpoint is active. Every
// mutation of row state must go through here so Rollback can restore it.
func (m *Module) row(bank, row int) *rowState {
	return m.touch(bank, row, &m.bankRows(bank)[row])
}

// touch is row for a caller already holding the bank's dense window: it
// journals rs (the state of (bank, row)) on its first mutation since the
// checkpoint was armed and marks it present.
func (m *Module) touch(bank, row int, rs *rowState) *rowState {
	if m.journal.active && rs.epoch != m.journal.epoch {
		m.journal.saveRow(bank, row, rs)
	}
	rs.present = true
	return rs
}

// peekRow returns the state of (bank, row) for reading only, or nil when
// the row (or its whole bank) has never been touched.
func (m *Module) peekRow(bank, row int) *rowState {
	rows := m.rows[bank]
	if rows == nil || !rows[row].present {
		return nil
	}
	return &rows[row]
}

// Activate opens row in bank at time at. Opening a row restores its cells'
// charge, so any disturbance the row accumulated as a victim materializes
// as permanent bitflips at this moment and its exposure resets.
func (m *Module) Activate(at TimePS, bank, row int) error {
	if err := m.checkBank(bank); err != nil {
		return err
	}
	if err := m.checkRow(row); err != nil {
		return err
	}
	b := &m.banks[bank]
	if b.open {
		return timingErr("ACT", bank, "row %d already open", b.openRow)
	}
	if b.hasPre && at < b.lastPreAt+m.Timing.TRP {
		return timingErr("ACT", bank, "tRP violated: PRE at %d, ACT at %d", b.lastPreAt, at)
	}
	m.restoreRow(bank, row, at)
	b.open = true
	b.openRow = row
	b.openedAt = at
	m.acts++
	m.advance(at)
	return nil
}

// Precharge closes the open row of bank at time at. This is the moment an
// aggressor's activation delivers its disturbance to neighbors: the row-open
// time (tAggON) is now known, and the row-off time preceding this activation
// was recorded at ACT.
func (m *Module) Precharge(at TimePS, bank int) error {
	if err := m.checkBank(bank); err != nil {
		return err
	}
	b := &m.banks[bank]
	if !b.open {
		return timingErr("PRE", bank, "no open row")
	}
	if at < b.openedAt+m.Timing.TRAS {
		return timingErr("PRE", bank, "tRAS violated: ACT at %d, PRE at %d", b.openedAt, at)
	}
	onTime := at - b.openedAt
	offTime := m.prevOff(bank, b.openRow, b.openedAt)
	m.accrue(bank, b.openRow, onTime, offTime, m.TemperatureAt(at))
	m.recordPre(bank, b.openRow, at)
	b.open = false
	b.hasPre = true
	b.lastPreAt = at
	m.pres++
	m.advance(at)
	return nil
}

// recordPre tracks each row's last precharge so the off time preceding the
// next activation of the same row can be computed.
func (m *Module) recordPre(bank, row int, at TimePS) {
	rs := m.row(bank, row)
	rs.lastPreSet = true
	rs.lastPreAt = at
}

func (m *Module) prevOff(bank, row int, actAt TimePS) TimePS {
	rs := m.peekRow(bank, row)
	if rs == nil || !rs.lastPreSet {
		return recoveredOff
	}
	off := actAt - rs.lastPreAt
	if off > recoveredOff {
		off = recoveredOff
	}
	return off
}

// accrue adds one activation's worth of disturbance from aggressor (bank,
// aggRow) to every row within the blast radius. It is accrueSpec with
// n = 1 and no skip set, unrolled for the PRE path: same increments, same
// victim order (distance ascending, lower victim first), so the floats are
// bit-identical to the shared walk's.
func (m *Module) accrue(bank, aggRow int, onTime, offTime TimePS, tempC float64) {
	inc := m.dist.Increments(onTime, offTime, tempC)
	rows := m.bankRows(bank)
	for d := 1; d <= BlastRadius; d++ {
		h, p := inc.Hammer[d], inc.Press[d]
		if h == 0 && p == 0 {
			continue
		}
		if v := aggRow - d; v >= 0 { // aggressor sits above the victim
			rs := m.touch(bank, v, &rows[v])
			rs.exp.HammerAbove += h
			rs.exp.PressAbove += p
		}
		if v := aggRow + d; v < len(rows) {
			rs := m.touch(bank, v, &rows[v])
			rs.exp.HammerBelow += h
			rs.exp.PressBelow += p
		}
	}
}

// restoreRow materializes accumulated disturbance as bitflips and resets
// the row's exposure. Called on ACT and by RestoreRow.
func (m *Module) restoreRow(bank, row int, at TimePS) {
	rs := m.row(bank, row)
	exp := rs.exp
	exp.Retention = m.retentionStress(rs.lastRestore, at)
	if rs.data != nil && (!exp.IsZero() || exp.Retention > 0) {
		nb := m.neighborData(bank, row)
		if !rs.shared || m.flipLands(bank, row, rs.data, nb, exp) {
			rs.ownData()
			m.dist.ApplyFlips(bank, row, rs.data, nb, exp)
		}
	}
	rs.exp = Exposure{}
	rs.lastRestore = at
}

// neighborData collects the adjacent rows' contents for the data-coupling
// component of flip evaluation.
func (m *Module) neighborData(bank, row int) NeighborData {
	nb := NeighborData{}
	if row+1 < m.Geo.RowsPerBank {
		if above := m.peekRow(bank, row+1); above != nil {
			nb.Above = above.data
		}
	}
	if row-1 >= 0 {
		if below := m.peekRow(bank, row-1); below != nil {
			nb.Below = below.data
		}
	}
	return nb
}

// RestoreRow refreshes a single row's charge at time at, materializing any
// pending flips first (this is what a targeted/preventive refresh does).
// TRR and RowHammer mitigations use it.
func (m *Module) RestoreRow(at TimePS, bank, row int) error {
	if err := m.checkBank(bank); err != nil {
		return err
	}
	if err := m.checkRow(row); err != nil {
		return err
	}
	m.restoreRow(bank, row, at)
	m.advance(at)
	return nil
}

// InitRow initializes a row's contents directly, outside the command
// protocol, resetting its disturbance state. Experiments use it for bulk
// data-pattern setup (the real infrastructure streams WRs; the result is
// identical and this keeps setup out of the measured command stream).
func (m *Module) InitRow(at TimePS, bank, row int, fill byte) error {
	if err := m.checkBank(bank); err != nil {
		return err
	}
	if err := m.checkRow(row); err != nil {
		return err
	}
	rs := m.row(bank, row)
	if rs.data == nil || rs.shared {
		// Fill overwrites every byte: a shared buffer needs no copy.
		rs.data = make([]byte, m.Geo.RowBytes)
		rs.shared = false
	}
	Fill(rs.data, fill)
	rs.exp = Exposure{}
	rs.lastRestore = at
	m.advance(at)
	return nil
}

// FetchRow activates the row, evaluates pending disturbance, and returns a
// copy of its contents, then leaves the row precharged. It issues real
// ACT/PRE commands with legal timing starting at time at and returns the
// completion time.
func (m *Module) FetchRow(at TimePS, bank, row int) ([]byte, TimePS, error) {
	if err := m.Activate(at, bank, row); err != nil {
		return nil, at, err
	}
	rs := m.row(bank, row)
	out := make([]byte, m.Geo.RowBytes)
	if rs.data != nil {
		copy(out, rs.data)
	}
	preAt := at + m.Timing.TRAS
	if err := m.Precharge(preAt, bank); err != nil {
		return nil, at, err
	}
	return out, preAt + m.Timing.TRP, nil
}

// RowView is a copy of one row's stored state.
type RowView struct {
	Data        []byte   // contents; nil for a never-written row
	Exp         Exposure // pending exposure
	LastRestore TimePS   // last charge restore
	LastPre     TimePS   // last PRE instant, when Precharged
	Precharged  bool     // the row has been closed at least once
}

// View returns a copy of (bank, row)'s stored state (test/analysis
// introspection; does not modify state). A row outside the module, or
// one the command path never touched, reads as the zero RowView.
func (m *Module) View(bank, row int) RowView {
	if bank < 0 || bank >= m.Geo.Banks || row < 0 || row >= m.Geo.RowsPerBank {
		return RowView{}
	}
	rs := m.peekRow(bank, row)
	if rs == nil {
		return RowView{}
	}
	return RowView{
		Data: bytes.Clone(rs.data), Exp: rs.exp, LastRestore: rs.lastRestore,
		LastPre: rs.lastPreAt, Precharged: rs.lastPreSet,
	}
}
