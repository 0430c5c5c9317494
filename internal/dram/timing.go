package dram

// Timing holds the DRAM timing parameters used in this work (§2.3), in
// picoseconds. A majority of DRAM timing parameters are lower bounds on
// command distances; the bank FSM in this package enforces the ones the
// paper's experiments depend on.
type Timing struct {
	TRAS  TimePS // min ACT -> PRE on the same bank (row-open time floor)
	TRP   TimePS // min PRE -> ACT on the same bank
	TRCD  TimePS // min ACT -> first RD/WR
	TCL   TimePS // RD -> data (column access latency)
	TBL   TimePS // burst: occupancy of one column access
	TREFI TimePS // nominal REF-to-REF interval
	TREFW TimePS // refresh window: every row refreshed once per TREFW
	TRFC  TimePS // REF execution time (bank unavailable)
}

// DDR4 returns the DDR4 timing set used throughout the paper: tRAS = 36 ns
// (the paper's minimum tAggON, covering the 32–35 ns range of JEDEC DDR4
// with margin, footnote 3), tREFI = 7.8 µs, tREFW = 64 ms.
func DDR4() Timing {
	return Timing{
		TRAS:  36 * Nanosecond,
		TRP:   15 * Nanosecond,
		TRCD:  15 * Nanosecond,
		TCL:   15 * Nanosecond,
		TBL:   3 * Nanosecond, // 8-beat burst at 3200 MT/s ≈ 2.5 ns, rounded
		TREFI: 7800 * Nanosecond,
		TREFW: 64 * Millisecond,
		TRFC:  350 * Nanosecond,
	}
}

// TRC returns the minimum ACT-to-ACT time on the same bank
// (tRC = tRAS + tRP, §5.4).
func (t Timing) TRC() TimePS { return t.TRAS + t.TRP }

// RefreshesPerWindow returns how many REF commands fall in one refresh
// window at the nominal rate.
func (t Timing) RefreshesPerWindow() int {
	return int(t.TREFW / t.TREFI)
}
