package dram

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// runDisturber is a FlipProber whose increments depend on on-time,
// off-time and temperature, and whose retention depends on temperature,
// so a fold that replayed the wrong window, or folded across a
// temperature change, would show in the floats. Flips follow
// thresholdDisturber's per-byte thresholds.
type runDisturber struct{ probingThreshold }

func (runDisturber) Increments(on, off TimePS, tempC float64) Increments {
	var inc Increments
	for d := 1; d <= BlastRadius; d++ {
		inc.Hammer[d] = (1 + Seconds(off)*1e3) * tempC / float64(d*d) * 1e-3
		inc.Press[d] = Seconds(on) * tempC / float64(d) * 10
	}
	return inc
}

func (runDisturber) RetentionAccel(tempC float64) float64 { return tempC / 50 }

func newRunDisturber(threshold float64) runDisturber {
	return runDisturber{probingThreshold{thresholdDisturber{threshold: threshold}}}
}

// runCase derives a random periodic run from seed: one to three
// aggressors one to three rows apart, a window of 1–60 activations, up to
// 40 windows, and a period from back-to-back to a few µs of idle.
func runCase(seed uint64) (spec HammerSpec, period TimePS, reps int) {
	h := func(i uint64) uint64 { return (seed ^ i*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9 >> 17 }
	first, gap := 10+int(h(1)%5), 1+int(h(2)%3)
	rows := []int{first}
	for i := 1; i <= int(h(3)%3); i++ {
		rows = append(rows, first+i*gap)
	}
	spec = HammerSpec{
		Bank:     int(h(4) % 2),
		Rows:     rows,
		Count:    1 + int(h(5)%60),
		OnTime:   36*Nanosecond + TimePS(h(6)%11)*100*Nanosecond,
		ExtraOff: TimePS(h(7)%3) * 200 * Nanosecond,
	}
	period = spec.TotalTime(DDR4()) + TimePS(h(8)%4)*Microsecond
	return spec, period, 1 + int(h(9)%40)
}

// runPair builds two identical modules ready for spec's run: rows filled,
// and a prior loop on the row below the first aggressor, so the run
// starts from a nontrivial history and its first restores can flip. It
// returns the run's start time.
func runPair(t *testing.T, dist Disturber, spec HammerSpec) (ref, got *Module, at TimePS) {
	t.Helper()
	prior := HammerSpec{Bank: spec.Bank, Rows: []int{spec.Rows[0] - 1}, Count: 150, OnTime: 36 * Nanosecond}
	ref, got = testModule(dist), testModule(dist)
	for _, m := range []*Module{ref, got} {
		for row := 0; row < 32; row++ {
			if err := m.InitRow(0, spec.Bank, row, 0x5A); err != nil {
				t.Fatal(err)
			}
		}
		end, err := m.HammerBatch(Microsecond, prior)
		if err != nil {
			t.Fatal(err)
		}
		at = end + 2*Microsecond
	}
	return ref, got, at
}

// sequentialRun is the reference a run is held against: one HammerBatch
// per window.
func sequentialRun(m *Module, at TimePS, spec HammerSpec, period TimePS, reps int) (TimePS, error) {
	var end TimePS
	for k := 0; k < reps; k++ {
		var err error
		if end, err = m.HammerBatch(at+TimePS(k)*period, spec); err != nil {
			return 0, err
		}
	}
	return end, nil
}

// sameState reports the first difference between two modules' complete
// state: every row field (exposure bit for bit), the banks, the counters,
// the clock and the temperature schedule.
func sameState(a, b *Module) error {
	if a.acts != b.acts || a.pres != b.pres || a.lastCmdAt != b.lastCmdAt {
		return fmt.Errorf("counters/clock %d/%d@%d vs %d/%d@%d", a.acts, a.pres, a.lastCmdAt, b.acts, b.pres, b.lastCmdAt)
	}
	if !slices.Equal(a.banks, b.banks) {
		return fmt.Errorf("banks %+v vs %+v", a.banks, b.banks)
	}
	if !slices.Equal(a.temps, b.temps) {
		return fmt.Errorf("temperature schedules differ")
	}
	for bank := range a.rows {
		ra, rb := a.rows[bank], b.rows[bank]
		if (ra == nil) != (rb == nil) {
			return fmt.Errorf("bank %d touched on one module only", bank)
		}
		for row := range ra {
			x, y := &ra[row], &rb[row]
			if !bytes.Equal(x.data, y.data) || expBits(x.exp) != expBits(y.exp) ||
				x.lastRestore != y.lastRestore || x.lastPreAt != y.lastPreAt || x.lastPreSet != y.lastPreSet ||
				x.present != y.present || x.shared != y.shared || x.epoch != y.epoch {
				return fmt.Errorf("bank %d row %d: exp %+v restore %d pre %d/%v vs exp %+v restore %d pre %d/%v",
					bank, row, x.exp, x.lastRestore, x.lastPreAt, x.lastPreSet, y.exp, y.lastRestore, y.lastPreAt, y.lastPreSet)
			}
		}
	}
	return nil
}

// checkRun plays one run folded on got and window by window on ref,
// requires equal end times and equal state, and returns how many
// windows the run folded.
func checkRun(t *testing.T, ref, got *Module, at TimePS, spec HammerSpec, period TimePS, reps int) (int, bool) {
	t.Helper()
	want, err := sequentialRun(ref, at, spec, period, reps)
	if err != nil {
		t.Fatal(err)
	}
	end, folded, err := got.hammerRun(at, spec, period, reps)
	if err != nil {
		t.Fatal(err)
	}
	if end != want {
		t.Logf("spec %+v period %d reps %d: end %d, sequential %d", spec, period, reps, end, want)
		return folded, false
	}
	if err := sameState(got, ref); err != nil {
		t.Logf("spec %+v period %d reps %d (%d folded): %v", spec, period, reps, folded, err)
		return folded, false
	}
	return folded, true
}

// TestHammerRunMatchesSequentialBatches is the run primitive's property
// test: on random specs, periods and window counts, HammerRun leaves
// exactly the state of one HammerBatch per window. Most runs longer than
// two windows fold, so the fold itself is what is being checked.
func TestHammerRunMatchesSequentialBatches(t *testing.T) {
	dist := newRunDisturber(2)
	runs, folds := 0, 0
	f := func(seed uint64) bool {
		spec, period, reps := runCase(seed)
		ref, got, at := runPair(t, dist, spec)
		folded, ok := checkRun(t, ref, got, at, spec, period, reps)
		runs++
		if folded > 0 {
			folds++
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if folds < runs/2 {
		t.Fatalf("only %d of %d runs folded: the test no longer exercises the fold", folds, runs)
	}
}

// TestHammerRunFallsBackWhenAggressorsFlip: a disturber that flips every
// restore's cells defeats the proof in every window, so the run plays
// window by window and still matches.
func TestHammerRunFallsBackWhenAggressorsFlip(t *testing.T) {
	dist := newRunDisturber(0)
	f := func(seed uint64) bool {
		spec, period, reps := runCase(seed)
		ref, got, at := runPair(t, dist, spec)
		folded, ok := checkRun(t, ref, got, at, spec, period, reps)
		if folded != 0 {
			t.Logf("spec %+v: folded %d windows whose aggressor restores flip", spec, folded)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHammerRunFallsBackAcrossTemperatureChange: a temperature change
// scheduled inside the run keeps the fold from starting until two windows
// after it, and the run still matches.
func TestHammerRunFallsBackAcrossTemperatureChange(t *testing.T) {
	dist := newRunDisturber(2)
	f := func(seed uint64) bool {
		spec, period, reps := runCase(seed)
		ref, got, at := runPair(t, dist, spec)
		kT := int(seed>>40) % reps
		for _, m := range []*Module{ref, got} {
			m.SetTemperature(at+TimePS(kT)*period+period/2, 80)
		}
		folded, ok := checkRun(t, ref, got, at, spec, period, reps)
		if folded > max(0, reps-kT-2) {
			t.Logf("spec %+v: folded %d of %d windows across a change in window %d", spec, folded, reps, kT)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHammerRunFoldsUnderCheckpoint: with a checkpoint armed the run
// still folds, and still matches the window-by-window reference; a
// Rollback then returns the module bit for bit to its pre-run state, so
// the fold journaled every row it wrote.
func TestHammerRunFoldsUnderCheckpoint(t *testing.T) {
	dist := newRunDisturber(2)
	runs, folds := 0, 0
	f := func(seed uint64) bool {
		spec, period, reps := runCase(seed)
		ref, got, at := runPair(t, dist, spec)
		pristine, _, _ := runPair(t, dist, spec)
		ref.Checkpoint()
		got.Checkpoint()
		folded, ok := checkRun(t, ref, got, at, spec, period, reps)
		runs++
		if folded > 0 {
			folds++
		}
		got.Rollback()
		if err := sameState(got, pristine); err != nil {
			t.Logf("spec %+v, %d of %d windows folded: after rollback: %v", spec, folded, reps, err)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if folds < runs/2 {
		t.Fatalf("only %d of %d runs folded under a checkpoint", folds, runs)
	}
}

// traceCase derives a random periodic trace from seed: a window of one
// to twelve slots over up to four rows one to three apart, each slot open
// from tRAS to a few µs and off for up to 600 ns extra, the number of
// windows to run, and how many windows already ran before the run.
func traceCase(seed uint64) (bank int, window []Slot, reps, before int) {
	h := func(i uint64) uint64 { return (seed ^ i*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9 >> 17 }
	first, gap := 10+int(h(1)%5), 1+int(h(2)%3)
	rows := 1 + int(h(3)%4)
	n := 1 + int(h(4)%12)
	for i := range n {
		x := h(uint64(10 + i))
		window = append(window, Slot{
			Row:      first + gap*int(x%uint64(rows)),
			OnTime:   36*Nanosecond + TimePS(x>>8%4)*TimePS(x>>12%1000)*Nanosecond,
			ExtraOff: TimePS(x>>24%4) * 200 * Nanosecond,
		})
	}
	return int(h(5) % 2), window, int(h(6) % 40), int(h(7) % 3)
}

// traceRef is the reference a trace run is held against: PlayTrace over
// the concatenated windows.
func traceRef(m *Module, at TimePS, bank int, window []Slot, reps int) (TimePS, error) {
	return m.PlayTrace(at, bank, reps*len(window), func(i int) Slot { return window[i%len(window)] }, nil)
}

// tracePair builds two identical modules ready for a trace run on bank:
// rows filled, a prior loop on row 9, and — when before > 0 — that many
// windows already played, so some runs start in steady state. It returns
// the run's start time.
func tracePair(t *testing.T, dist Disturber, bank int, window []Slot, before int) (ref, got *Module, at TimePS) {
	t.Helper()
	prior := HammerSpec{Bank: bank, Rows: []int{9}, Count: 150, OnTime: 36 * Nanosecond}
	ref, got = testModule(dist), testModule(dist)
	for _, m := range []*Module{ref, got} {
		for row := 0; row < 32; row++ {
			if err := m.InitRow(0, bank, row, 0x5A); err != nil {
				t.Fatal(err)
			}
		}
		end, err := m.HammerBatch(Microsecond, prior)
		if err != nil {
			t.Fatal(err)
		}
		if at, err = traceRef(m, end+2*Microsecond, bank, window, before); err != nil {
			t.Fatal(err)
		}
	}
	return ref, got, at
}

// checkTraceRun runs one trace folded on got and slot by slot on ref,
// requires equal end times and equal state, and returns how many windows
// the run folded.
func checkTraceRun(t *testing.T, ref, got *Module, at TimePS, bank int, window []Slot, reps int) (int, bool) {
	t.Helper()
	want, err := traceRef(ref, at, bank, window, reps)
	if err != nil {
		t.Fatal(err)
	}
	end, folded, err := got.TraceRun(at, bank, window, reps)
	if err != nil {
		t.Fatal(err)
	}
	if end != want {
		t.Logf("window %+v reps %d: end %d, slot by slot %d", window, reps, end, want)
		return folded, false
	}
	if err := sameState(got, ref); err != nil {
		t.Logf("window %+v reps %d (%d folded): %v", window, reps, folded, err)
		return folded, false
	}
	return folded, true
}

// TestTraceRunMatchesPlayTrace is the slot-window fold's property test:
// on random windows, histories and window counts, TraceRun leaves exactly
// the state of PlayTrace over the same slots — banks and every row field
// bit for bit — with and without an armed checkpoint, and a Rollback
// after a folded run is exact. Most runs of four or more windows fold.
func TestTraceRunMatchesPlayTrace(t *testing.T) {
	dist := newRunDisturber(2)
	for _, armed := range []bool{false, true} {
		runs, folds := 0, 0
		f := func(seed uint64) bool {
			bank, window, reps, before := traceCase(seed)
			ref, got, at := tracePair(t, dist, bank, window, before)
			pristine, _, _ := tracePair(t, dist, bank, window, before)
			if armed {
				ref.Checkpoint()
				got.Checkpoint()
			}
			folded, ok := checkTraceRun(t, ref, got, at, bank, window, reps)
			if reps >= 4 {
				runs++
				if folded > 0 {
					folds++
				}
			}
			if armed {
				got.Rollback()
				if err := sameState(got, pristine); err != nil {
					t.Logf("window %+v, %d of %d windows folded: after rollback: %v", window, folded, reps, err)
					return false
				}
			}
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("checkpoint armed %v: %v", armed, err)
		}
		if folds < runs/2 {
			t.Fatalf("checkpoint armed %v: only %d of %d runs folded", armed, folds, runs)
		}
	}
}

// TestTraceRunFoldsFromSteadyHistory: a run whose history already repeats
// the window twice folds from its first window. This window's first
// steady one is the third: the tail row 12 carries out of a window is
// row 14's activation, whose off time in the first window follows the
// foreign history.
func TestTraceRunFoldsFromSteadyHistory(t *testing.T) {
	dist := newRunDisturber(2)
	window := []Slot{{Row: 12, OnTime: 36 * Nanosecond}, {Row: 12, OnTime: 2 * Microsecond, ExtraOff: 100 * Nanosecond},
		{Row: 14, OnTime: 36 * Nanosecond}}
	for _, tc := range []struct{ before, folded int }{{0, 8}, {1, 9}, {2, 10}, {5, 10}} {
		ref, got, at := tracePair(t, dist, 0, window, tc.before)
		folded, ok := checkTraceRun(t, ref, got, at, 0, window, 10)
		if !ok || folded != tc.folded {
			t.Fatalf("%d windows before: folded %d of 10 (want %d), state equal %v", tc.before, folded, tc.folded, ok)
		}
	}
}

// TestTraceRunFallsBack: restores that flip, and a temperature change
// inside the run, keep the windows they touch from folding, and the run
// still matches.
func TestTraceRunFallsBack(t *testing.T) {
	f := func(seed uint64) bool {
		bank, window, reps, before := traceCase(seed)
		ref, got, at := tracePair(t, newRunDisturber(0), bank, window, before)
		if folded, ok := checkTraceRun(t, ref, got, at, bank, window, reps); !ok || folded != 0 {
			t.Logf("window %+v: %d windows folded whose restores flip, state equal %v", window, folded, ok)
			return false
		}
		ref, got, at = tracePair(t, newRunDisturber(2), bank, window, before)
		var length TimePS
		for _, s := range window {
			length += s.Duration(DDR4())
		}
		kT := int(seed>>40) % max(reps, 1)
		for _, m := range []*Module{ref, got} {
			m.SetTemperature(at+TimePS(kT)*length+length/2, 80)
		}
		folded, ok := checkTraceRun(t, ref, got, at, bank, window, reps)
		if folded > max(0, reps-kT-2) {
			t.Logf("window %+v: folded %d of %d windows across a change in window %d", window, folded, reps, kT)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRunValidation(t *testing.T) {
	m := testModule(NopDisturber{})
	ok := Slot{Row: 10, OnTime: 36 * Nanosecond}
	for name, tc := range map[string]struct {
		bank   int
		window []Slot
		reps   int
	}{
		"bank":      {bank: 5, window: []Slot{ok}, reps: 1},
		"reps":      {window: []Slot{ok}, reps: -1},
		"empty":     {reps: 1},
		"row":       {window: []Slot{ok, {Row: 64, OnTime: 36 * Nanosecond}}, reps: 1},
		"tRAS":      {window: []Slot{{Row: 10, OnTime: 35 * Nanosecond}}, reps: 1},
		"extra off": {window: []Slot{{Row: 10, OnTime: 36 * Nanosecond, ExtraOff: -1}}, reps: 1},
	} {
		if _, _, err := m.TraceRun(0, tc.bank, tc.window, tc.reps); err == nil {
			t.Errorf("%s: TraceRun accepted an invalid run", name)
		}
	}
	if end, _, err := m.TraceRun(0, 0, []Slot{ok}, 3); err != nil || end != 3*ok.Duration(m.Timing) {
		t.Fatalf("valid run: end %d, err %v", end, err)
	}
	if _, _, err := m.TraceRun(end0(m)-1, 0, []Slot{ok}, 1); err == nil {
		t.Error("a run starting inside tRP of the last PRE should fail")
	}
}

// end0 returns the instant the bank-0 history of m allows the next ACT.
func end0(m *Module) TimePS { return m.banks[0].lastPreAt + m.Timing.TRP }

func TestHammerRunValidation(t *testing.T) {
	m := testModule(NopDisturber{})
	spec := HammerSpec{Bank: 0, Rows: []int{10, 12}, Count: 8, OnTime: 36 * Nanosecond}
	if _, err := m.HammerRun(0, spec, spec.TotalTime(m.Timing), 0); err == nil {
		t.Error("zero windows should fail")
	}
	if _, err := m.HammerRun(0, spec, spec.TotalTime(m.Timing)-1, 2); err == nil {
		t.Error("a period shorter than the window should fail")
	}
	if _, err := m.HammerRun(0, spec, spec.TotalTime(m.Timing), 5); err != nil {
		t.Errorf("back-to-back windows: %v", err)
	}
}
