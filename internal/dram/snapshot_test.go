package dram

import (
	"bytes"
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
			s.exps = append(s.exps, m.PendingExposure(bank, row))
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

// TestProbeFetchMatchesFetchRow is the pure-probe contract: ProbeFetch
// must report exactly what executing the FetchRow stream would, and must
// not change any module state.
func TestProbeFetchMatchesFetchRow(t *testing.T) {
	build := func() (*Module, TimePS) {
		m := testModule(thresholdDisturber{hInc: 1, pInc: 100, threshold: 30})
		for row := 28; row <= 34; row++ {
			if err := m.InitRow(0, 0, row, 0xA5); err != nil {
				t.Fatal(err)
			}
		}
		end, err := m.HammerBatch(Microsecond, HammerSpec{Bank: 0, Rows: []int{31}, Count: 200, OnTime: 400 * Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		return m, end + m.Timing.TRP
	}
	victims := []int{30, 32, 29, 33, 28, 34}

	m, at := build()
	before := captureState(m)
	probes, probeEnd, err := m.ProbeFetch(at, 0, victims)
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(before, captureState(m)) {
		t.Fatal("ProbeFetch mutated module state")
	}
	// Probing twice gives identical answers (purity).
	probes2, _, err := m.ProbeFetch(at, 0, victims)
	if err != nil {
		t.Fatal(err)
	}
	for i := range probes {
		if probes[i].Flips != probes2[i].Flips || !bytes.Equal(probes[i].Data, probes2[i].Data) {
			t.Fatalf("repeated probe differs at %d", i)
		}
	}

	// Execute the real fetch stream on an identically-built module.
	ref, _ := build()
	now := at
	for i, v := range victims {
		data, fin, err := ref.FetchRow(now, 0, v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, probes[i].Data) {
			t.Errorf("row %d: probed data differs from fetched data", v)
		}
		now = fin
	}
	if now != probeEnd {
		t.Errorf("probe end %d != fetch end %d", probeEnd, now)
	}
	totalFlips := 0
	for _, p := range probes {
		totalFlips += p.Flips
	}
	if totalFlips == 0 {
		t.Fatal("setup produced no flips; probe equivalence test is vacuous")
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
		flips, err := m.RestoreRowCounted(at, 0, 31) // journals row 31, then flips it
		if err != nil {
			t.Fatal(err)
		}
		if flips == 0 {
			t.Fatal("restore of the hammered victim flipped nothing; the test is vacuous")
		}
		if _, err := m.RestoreRowCounted(at+2*m.Timing.TRAS, 0, 33); err != nil { // journal 33 first
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
			if _, err := m.RestoreRowCounted(at, 0, 31); err != nil {
				t.Fatal(err)
			}
			m.Rollback()
		})
		if allocs != tc.want {
			t.Errorf("threshold %g: %v allocations per journaled restore, want %v", tc.threshold, allocs, tc.want)
		}
	}
}
