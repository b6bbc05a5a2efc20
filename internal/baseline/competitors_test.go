package baseline

import "testing"

func TestRPTDetectsSteadyStream(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x40000)
	r := NewRPT(f.eng, DefaultRPTConfig(), f.l1, f.tlb)

	for i := uint64(0); i < 16; i++ {
		f.load(0x10000+i*64, 7)
	}
	if r.Stats().Issued == 0 {
		t.Fatalf("RPT issued nothing on a steady stream: %+v", r.Stats())
	}
	// Lookahead 2, degree 2: lines 2 and 3 ahead should be resident.
	if !f.l1.Contains(0x10000+17*64) || !f.l1.Contains(0x10000+18*64) {
		t.Error("lines ahead of the stream not prefetched")
	}
}

// The four-state automaton must lock an alternating (never-correct) access
// pattern into NoPrediction: after the initial transitions, no prefetches.
func TestRPTNoPredLockout(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x40000)
	r := NewRPT(f.eng, DefaultRPTConfig(), f.l1, f.tlb)
	for i := 0; i < 20; i++ {
		f.load(0x10000, 3)
		f.load(0x10000+64, 3)
	}
	// Initial→Transient→NoPred costs two observations that may each issue up
	// to Degree prefetches; everything after must be silent.
	if got := r.Stats().Generated; got > 2*int64(DefaultRPTConfig().Degree) {
		t.Errorf("RPT generated %d prefetches while alternating; NoPrediction lockout broken", got)
	}
}

// From Steady, one outlier drops only to Initial keeping the stride, so a
// resuming stream re-enters Steady on the next access instead of retraining.
func TestRPTSteadyGraceKeepsStride(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x80000)
	r := NewRPT(f.eng, DefaultRPTConfig(), f.l1, f.tlb)
	for i := uint64(0); i < 8; i++ {
		f.load(0x10000+i*64, 9)
	}
	before := r.Stats().Generated
	f.load(0x40000, 9) // outlier: Steady → Initial, stride kept
	// Resume the stream from the outlier: the very next correct stride must
	// transition Initial → Steady and keep prefetching.
	for i := uint64(1); i < 4; i++ {
		f.load(0x40000+i*64, 9)
	}
	if got := r.Stats().Generated; got <= before {
		t.Errorf("RPT generated no prefetches after the one-outlier grace (before=%d after=%d)",
			before, got)
	}
}

// The delta-correlating GHB predicts a *repeating delta pattern* even though
// every address is new — the case that defeats the Markov (same-address) GHB.
func TestDeltaRepredictsRepeatedDeltaPattern(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x100000, 0x4000000)
	g := NewGHBDelta(f.eng, DefaultDeltaConfig(), f.l1, f.tlb)

	deltas := []uint64{0x1040, 0x2080, 0x30c0} // distinct lines, all misses
	addr := uint64(0x100000)
	for i := 0; i < 12; i++ {
		f.load(addr, 1)
		addr += deltas[i%len(deltas)]
	}
	if g.Stats().Issued == 0 {
		t.Fatalf("delta GHB issued nothing on a repeating delta pattern: %+v", g.Stats())
	}
}

func TestDeltaSilentWithoutRepetition(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x100000, 0x4000000)
	g := NewGHBDelta(f.eng, DefaultDeltaConfig(), f.l1, f.tlb)
	addr := uint64(0x100000)
	for i := uint64(1); i < 40; i++ {
		f.load(addr, 1)
		addr += i * 0x1040 // strictly growing deltas: no delta ever recurs
	}
	if got := g.Stats().Issued; got != 0 {
		t.Errorf("delta GHB issued %d prefetches with no repeating delta", got)
	}
}

// T-SKID learns that accesses by one PC (the trigger) predict a later miss
// by another PC (the target) and prefetches the target's extrapolated line.
func TestTSKIDLearnsTriggerTarget(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x2000000)
	u := NewTSKID(f.eng, DefaultTSKIDConfig(), f.l1, f.tlb)

	// PC 1 touches stream A; a fixed distance later PC 2 misses in stream B.
	for i := uint64(0); i < 24; i++ {
		f.load(0x10000+i*4096, 1)
		f.load(0x1000000+i*4096, 2)
	}
	if u.Stats().Generated == 0 {
		t.Fatalf("T-SKID generated nothing on a trigger→target pattern: %+v", u.Stats())
	}
}

// Timing discipline: a learned delay beyond the lead margin must delay the
// issue rather than firing immediately.
func TestTSKIDDelaysIssue(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x2000000)
	cfg := DefaultTSKIDConfig()
	u := NewTSKID(f.eng, cfg, f.l1, f.tlb)

	for i := uint64(0); i < 6; i++ {
		f.load(0x10000+i*4096, 1)
		// Let simulated time pass between trigger and target so the learned
		// delay exceeds LeadTicks and the issue path goes through the
		// scheduled handler.
		f.eng.ScheduleAfter(4*cfg.LeadTicks, thunk(func() {}), 0, 0)
		f.eng.Run()
		f.load(0x1000000+i*4096, 2)
	}
	// Trigger once more and stop the stream: the prefetch for the next target
	// line must arrive only after the engine advances past the delay.
	f.load(0x10000+6*4096, 1)
	next := uint64(0x1000000 + 6*4096)
	f.eng.Run() // drains the delayed issue and its memory round trip
	if u.Stats().Generated == 0 {
		t.Fatalf("T-SKID generated nothing: %+v", u.Stats())
	}
	if !f.l1.Contains(next) {
		t.Errorf("target line %#x not prefetched after the learned delay", next)
	}
}
