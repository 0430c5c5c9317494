package dram

import (
	"bytes"
	"math/bits"
	"testing"
)

// thresholdDisturber flips cells deterministically once accumulated hammer
// or press exposure crosses a per-byte threshold, with a neighbor-coupled
// weight so data-coupling effects are exercised. It gives the checkpoint
// and probe tests real flips to preserve and to predict.
type thresholdDisturber struct {
	hInc, pInc float64
	threshold  float64
}

func (d thresholdDisturber) Increments(on, off TimePS, tempC float64) Increments {
	var inc Increments
	for dist := 1; dist <= BlastRadius; dist++ {
		inc.Hammer[dist] = d.hInc / float64(dist)
		inc.Press[dist] = d.pInc * Seconds(on) / float64(dist)
	}
	return inc
}

func (d thresholdDisturber) RetentionAccel(float64) float64 { return 1 }

func (d thresholdDisturber) ApplyFlips(bank, row int, data []byte, nb NeighborData, exp Exposure) int {
	if data == nil {
		return 0
	}
	flips := 0
	for i := range data {
		w := 1.0
		if nb.Above != nil && i < len(nb.Above) && nb.Above[i]&1 != 0 {
			w = 1.5
		}
		damage := (exp.HammerAbove+exp.HammerBelow+exp.PressAbove+exp.PressBelow)*w + exp.Retention*1e-9
		if damage >= d.threshold*float64(i+1) {
			data[i] ^= 0x01
			flips++
		}
	}
	return flips
}

// snapshotState captures everything observable about a module for
// equality comparison.
type snapshotState struct {
	exps  []Exposure
	datas [][]byte
	ctrs  Counters
	now   TimePS
}

func captureState(m *Module) snapshotState {
	s := snapshotState{ctrs: m.Counters(), now: m.Now()}
	for bank := 0; bank < m.Geo.Banks; bank++ {
		for row := 0; row < m.Geo.RowsPerBank; row++ {
			s.exps = append(s.exps, m.View(bank, row).Exp)
			s.datas = append(s.datas, m.PeekRow(bank, row))
		}
	}
	return s
}

func statesEqual(a, b snapshotState) bool {
	if a.ctrs != b.ctrs || a.now != b.now || len(a.exps) != len(b.exps) {
		return false
	}
	for i := range a.exps {
		if a.exps[i] != b.exps[i] || !bytes.Equal(a.datas[i], b.datas[i]) {
			return false
		}
	}
	return true
}

func TestCheckpointRollbackRestoresEverything(t *testing.T) {
	m := testModule(thresholdDisturber{hInc: 1, pInc: 100, threshold: 50})
	if err := m.InitRow(0, 0, 30, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := m.InitRow(0, 0, 31, 0x55); err != nil {
		t.Fatal(err)
	}
	end, err := m.HammerBatch(Microsecond, HammerSpec{Bank: 0, Rows: []int{29, 32}, Count: 40, OnTime: 36 * Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	before := captureState(m)

	m.Checkpoint()
	// Mutate heavily: more hammering (materializes flips on ACT), row
	// initialization, targeted refreshes, temperature changes.
	end2, err := m.HammerBatch(end+Microsecond, HammerSpec{Bank: 0, Rows: []int{30}, Count: 500, OnTime: 700 * Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	m.SetTemperature(end2, 80)
	if err := m.InitRow(end2, 0, 31, 0xFF); err != nil {
		t.Fatal(err)
	}
	for row := 28; row <= 33; row++ {
		if err := m.RestoreRow(end2+Microsecond, 0, row); err != nil {
			t.Fatal(err)
		}
	}
	if statesEqual(before, captureState(m)) {
		t.Fatal("mutations between checkpoint and rollback had no observable effect; test is vacuous")
	}

	m.Rollback()
	if !statesEqual(before, captureState(m)) {
		t.Fatal("rollback did not restore the checkpointed state")
	}

	// The checkpoint stays armed: mutate and roll back again.
	if _, err := m.HammerBatch(end+Microsecond, HammerSpec{Bank: 0, Rows: []int{30}, Count: 100, OnTime: 36 * Nanosecond}); err != nil {
		t.Fatal(err)
	}
	m.Rollback()
	if !statesEqual(before, captureState(m)) {
		t.Fatal("second rollback did not restore the checkpointed state")
	}

	// Release keeps the current state and allows a new checkpoint.
	m.ReleaseCheckpoint()
	m.Checkpoint()
	m.ReleaseCheckpoint()
}

func TestCheckpointRollbackAfterRelease(t *testing.T) {
	m := testModule(nil)
	m.Checkpoint()
	m.ReleaseCheckpoint()
	defer func() {
		if recover() == nil {
			t.Fatal("Rollback after release should panic")
		}
	}()
	m.Rollback()
}

// fetchDiff executes the victim-check stream FetchRow(at, rows[0]) …
// on m and counts the fetched bits that differ from expect: the answer
// ProbeCheck must give without executing anything.
func fetchDiff(t *testing.T, m *Module, at TimePS, rows []int, expect byte) int {
	t.Helper()
	n := 0
	for _, v := range rows {
		data, fin, err := m.FetchRow(at, 0, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range data {
			n += bits.OnesCount8(b ^ expect)
		}
		at = fin
	}
	return n
}

// checkProbeCheck holds m's ProbeCheck of rows at time at to the
// contract — limit 0 counts exactly what executing the FetchRow stream
// and diffing does, limit 1 is > 0 exactly when that count is, a limit
// stops the count no earlier than the limit, and no call changes module
// state — then executes the stream on m. It returns the executed count.
func checkProbeCheck(t *testing.T, m *Module, at TimePS, rows []int, expect byte) int {
	t.Helper()
	before := captureState(m)
	full, err := m.ProbeCheck(at, 0, rows, expect, 0)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := m.ProbeCheck(at, 0, rows, expect, 1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := m.ProbeCheck(at, 0, rows, expect, full/2+1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.ProbeCheck(at, 0, rows, expect, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(before, captureState(m)) {
		t.Fatal("ProbeCheck mutated module state")
	}
	if again != full {
		t.Fatalf("repeated ProbeCheck = %d, first = %d", again, full)
	}
	want := fetchDiff(t, m, at, rows, expect)
	if full != want {
		t.Errorf("%T: ProbeCheck(limit 0) = %d, executing the stream diffs %d bits", m.dist, full, want)
	}
	if (hit > 0) != (want > 0) || hit > want {
		t.Errorf("%T: ProbeCheck(limit 1) = %d, executing the stream diffs %d bits", m.dist, hit, want)
	}
	if lim := full/2 + 1; want >= lim && (half < lim || half > want) {
		t.Errorf("%T: ProbeCheck(limit %d) = %d, executing the stream diffs %d bits", m.dist, lim, half, want)
	}
	return want
}

// TestProbeCheckMatchesFetchRow is the pure-probe contract on a hammered
// neighbourhood, with and without a FlipProber, fresh and after a
// RestoreRow burned flips into every victim (no pending exposure left to
// cross a threshold: only the stored data diffs).
func TestProbeCheckMatchesFetchRow(t *testing.T) {
	victims := []int{30, 32, 29, 33, 28, 34}
	for _, dist := range []Disturber{
		thresholdDisturber{hInc: 1, pInc: 100, threshold: 30},
		probingThreshold{thresholdDisturber{hInc: 1, pInc: 100, threshold: 30}},
	} {
		for _, burned := range []bool{false, true} {
			m := testModule(dist)
			for row := 28; row <= 34; row++ {
				if err := m.InitRow(0, 0, row, 0xA5); err != nil {
					t.Fatal(err)
				}
			}
			end, err := m.HammerBatch(Microsecond, HammerSpec{Bank: 0, Rows: []int{31}, Count: 200, OnTime: 400 * Nanosecond})
			if err != nil {
				t.Fatal(err)
			}
			at := end + m.Timing.TRP
			if burned {
				for _, v := range victims {
					if err := m.RestoreRow(at, 0, v); err != nil {
						t.Fatal(err)
					}
				}
				at += Millisecond
			}
			if checkProbeCheck(t, m, at, victims, 0xA5) == 0 {
				t.Fatalf("%T burned=%v: setup produced no flips; the contract check is vacuous", dist, burned)
			}
		}
	}
}

// TestCheckpointSharedRowMutationsRollBack: a journaled row shares its
// data buffer with the journal until its first mutation. A materialized
// flip and an InitRow on shared rows must each write a buffer of the
// row's own, so rollback brings back the pre-checkpoint bytes.
func TestCheckpointSharedRowMutationsRollBack(t *testing.T) {
	for _, dist := range []Disturber{
		thresholdDisturber{hInc: 1, pInc: 100, threshold: 50},
		probingThreshold{thresholdDisturber{hInc: 1, pInc: 100, threshold: 50}},
	} {
		m := testModule(dist)
		for row := 28; row <= 36; row++ {
			if err := m.InitRow(0, 0, row, byte(0x11*row)); err != nil {
				t.Fatal(err)
			}
		}
		end, err := m.HammerBatch(Microsecond, HammerSpec{Bank: 0, Rows: []int{30, 32}, Count: 400, OnTime: 36 * Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		before := captureState(m)

		m.Checkpoint()
		at := end + m.Timing.TRP
		row31 := append([]byte(nil), m.PeekRow(0, 31)...)
		if err := m.RestoreRow(at, 0, 31); err != nil { // journals row 31, then flips it
			t.Fatal(err)
		}
		if bytes.Equal(row31, m.PeekRow(0, 31)) {
			t.Fatal("restore of the hammered victim flipped nothing; the test is vacuous")
		}
		if err := m.RestoreRow(at+2*m.Timing.TRAS, 0, 33); err != nil { // journal 33 first
			t.Fatal(err)
		}
		if err := m.InitRow(at+2*m.Timing.TRAS, 0, 33, 0x5A); err != nil {
			t.Fatal(err)
		}
		if statesEqual(before, captureState(m)) {
			t.Fatal("mutations had no observable effect; the test is vacuous")
		}
		m.Rollback()
		if !statesEqual(before, captureState(m)) {
			t.Fatalf("%T: rollback did not restore the pre-checkpoint bytes of shared rows", dist)
		}
	}
}

// TestCheckpointUnflippedRowCopiesNoData: journaling a row whose restore
// flips nothing shares its buffer instead of copying 8 KiB-class row
// data; only a restore that flips pays for the copy.
func TestCheckpointUnflippedRowCopiesNoData(t *testing.T) {
	for _, tc := range []struct {
		threshold float64
		want      float64
	}{{threshold: 1e9, want: 0}, {threshold: 50, want: 1}} {
		m := testModule(probingThreshold{thresholdDisturber{hInc: 1, pInc: 100, threshold: tc.threshold}})
		for row := 29; row <= 31; row++ {
			if err := m.InitRow(0, 0, row, 0xAA); err != nil {
				t.Fatal(err)
			}
		}
		end, err := m.HammerBatch(Microsecond, HammerSpec{Bank: 0, Rows: []int{30}, Count: 400, OnTime: 36 * Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		m.Checkpoint()
		at := end + m.Timing.TRP
		allocs := testing.AllocsPerRun(50, func() {
			if err := m.RestoreRow(at, 0, 31); err != nil {
				t.Fatal(err)
			}
			m.Rollback()
		})
		if allocs != tc.want {
			t.Errorf("threshold %g: %v allocations per journaled restore, want %v", tc.threshold, allocs, tc.want)
		}
	}
}
