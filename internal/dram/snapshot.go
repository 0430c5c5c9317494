package dram

// Checkpoint/rollback of module state.
//
// Monotone searches (the scenario min-exposure bisection, and any caller
// probing a prefix family of command streams) used to replay the whole
// pattern from scratch for every probe. A checkpoint makes the probe loop
// incremental: arm a checkpoint at the bracket's lower bound, play forward
// to the probe point, inspect, and either roll back (probe flipped) or
// re-arm at the probe point (it did not). The journal is copy-on-write at
// row granularity — a hammer run touches only the rows inside its blast
// radius, so a checkpoint costs a handful of row snapshots regardless of
// how many million activations the play spans. Row contents are
// copy-on-write too: a journaled row shares its data buffer with its
// entry until the row's first in-place mutation (a materializing flip or
// an InitRow) replaces it, so a row that only accrues exposure is
// journaled without copying its bytes.

// journalEntry preserves one row's state as it was when the active
// checkpoint was armed. prev.data is the buffer the row held then; the
// live row shares it (rowState.shared) until ownData copies it before a
// mutation.
type journalEntry struct {
	bank, row int
	prev      rowState
}

// journal is the module's active checkpoint. epoch stamps rows on first
// post-checkpoint touch so each row is saved at most once per arming.
type journal struct {
	active bool
	epoch  uint32
	rows   []journalEntry

	banks     []bankState
	nTemps    int
	lastCmdAt TimePS
	counters  Counters
}

// saveRow records a row's pre-mutation state. Called from Module.row on
// the first touch of each row after the checkpoint was armed. The entry
// and the live row share the data buffer.
func (j *journal) saveRow(bank, row int, rs *rowState) {
	j.rows = append(j.rows, journalEntry{bank: bank, row: row, prev: *rs})
	rs.epoch = j.epoch
	rs.shared = rs.data != nil
}

// ownData gives the row a data buffer of its own before an in-place
// mutation, copying the one it shares with the checkpoint journal.
func (rs *rowState) ownData() {
	if rs.shared {
		rs.data = append([]byte(nil), rs.data...)
		rs.shared = false
	}
}

// flipLands reports whether a restore with exposure exp flips a bit of the
// row, so a buffer shared with the journal (or a live buffer ProbeCheck
// reads) is copied only when a flip will land in it. WouldFlip agrees
// exactly with ApplyFlips > 0; a disturber without it is assumed to flip.
func (m *Module) flipLands(bank, row int, data []byte, nb NeighborData, exp Exposure) bool {
	fp, ok := m.dist.(FlipProber)
	return !ok || fp.WouldFlip(bank, row, data, nb, exp)
}

// Checkpoint arms copy-on-write journaling of all module state. Only one
// checkpoint can be active; arming while one is active panics (a
// programming error in the caller's search loop — use Rollback to return
// to the armed point or ReleaseCheckpoint to discard it first).
func (m *Module) Checkpoint() {
	if m.journal.active {
		panic("dram: Checkpoint with a checkpoint already active")
	}
	m.armCheckpoint()
}

func (m *Module) armCheckpoint() {
	m.journal.active = true
	m.journal.epoch++
	m.journal.rows = m.journal.rows[:0]
	m.journal.banks = append(m.journal.banks[:0], m.banks...)
	m.journal.nTemps = len(m.temps)
	m.journal.lastCmdAt = m.lastCmdAt
	m.journal.counters = m.Counters()
}

// Rollback restores the module to the state it had when Checkpoint was
// armed. The checkpoint stays armed, so a search can roll back repeatedly
// to the same point. It panics when no checkpoint is active.
func (m *Module) Rollback() {
	if !m.journal.active {
		panic("dram: Rollback without an active checkpoint")
	}
	j := &m.journal
	for i := range j.rows {
		e := &j.rows[i]
		// The saved buffer becomes the live one; a mutated copy is
		// dropped. Restoring clears the epoch stamp and the shared flag
		// implicitly via prev.
		m.rows[e.bank][e.row] = e.prev
	}
	copy(m.banks, j.banks)
	m.temps = m.temps[:j.nTemps]
	m.lastCmdAt = j.lastCmdAt
	m.acts, m.pres = j.counters.Activates, j.counters.Precharges
	// Re-arm: bump the epoch so rows journaled before this rollback are
	// saved again on their next touch.
	m.armCheckpoint()
}

// ReleaseCheckpoint discards the active checkpoint, keeping the current
// state. A search advances its bracket by releasing and re-arming at the
// new lower bound. Releasing with no active checkpoint is a no-op.
func (m *Module) ReleaseCheckpoint() {
	// The entries die here, so rows still sharing a buffer with one own
	// it again.
	for _, e := range m.journal.rows {
		m.rows[e.bank][e.row].shared = false
	}
	m.journal.active = false
	m.journal.rows = m.journal.rows[:0]
}
