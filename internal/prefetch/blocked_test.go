package prefetch

// Regression tests for blocked-mode (Figure 11) PPU accounting: chained and
// resumed kernels must be charged for their cycles and checked for faults,
// the blocked path must emit the same kernel trace events as the event
// path, and a tagged prefetch dropped at any stage of the pipeline —
// request queue, TLB, MSHR — must resume its suspended PPU exactly once.

import (
	"testing"

	"eventpf/internal/ppu"
	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

func blockedConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPPUs = 1
	cfg.Blocked = true
	return cfg
}

func countKind(tr *RingTracer, k TraceKind) int {
	n := 0
	for _, e := range tr.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// assertUnitIdle checks the single PPU ended the run free and was released
// exactly once — a drop that resumed it twice would free it twice, one that
// never resumed it would leave it busy forever.
func assertUnitIdle(t *testing.T, f *fixture, tr *RingTracer) {
	t.Helper()
	if f.pf.units[0].busy {
		t.Error("PPU 0 still busy after the run: suspended unit never resumed")
	}
	if got := countKind(tr, trace.PFUnitFree); got != 1 {
		t.Errorf("PPU freed %d times, want exactly 1", got)
	}
	if len(f.pf.pending) != 0 {
		t.Errorf("%d pending prefetches survive the run", len(f.pf.pending))
	}
}

// A chained kernel running on the blocked path must have its fault counted,
// exactly as a fresh event-path kernel would.
func TestBlockedChainedKernelFaultCounted(t *testing.T) {
	f := newFixture(t, blockedConfig())
	tr := NewRingTracer(256)
	f.pf.Tracer = tr
	arr := f.arena.AllocWords("A", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pftag r1, 2
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble(`
		movi r1, 1
		movi r2, 0
		div  r3, r1, r2
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	f.eng.Run()

	if f.pf.Stats.KernelRuns != 2 {
		t.Errorf("KernelRuns = %d, want 2", f.pf.Stats.KernelRuns)
	}
	if f.pf.Stats.KernelFaults != 1 {
		t.Errorf("KernelFaults = %d, want 1 (chained kernel divides by zero)", f.pf.Stats.KernelFaults)
	}
	assertUnitIdle(t, f, tr)
}

// A kernel that faults after being resumed (it blocked on a tagged prefetch
// first) must also be counted: the fault check has to run on the stack-pop
// path, not just on fresh invocations.
func TestBlockedResumedKernelFaultCounted(t *testing.T) {
	f := newFixture(t, blockedConfig())
	tr := NewRingTracer(256)
	f.pf.Tracer = tr
	arr := f.arena.AllocWords("A", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pftag r1, 2
		halt
	`))
	// Blocks on its own tagged prefetch, then divides by zero on resume.
	f.pf.RegisterKernel(2, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 64
		pftag r1, 3
		movi  r4, 1
		movi  r5, 0
		div   r6, r4, r5
		halt
	`))
	f.pf.RegisterKernel(3, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	f.eng.Run()

	if f.pf.Stats.KernelRuns != 3 {
		t.Errorf("KernelRuns = %d, want 3", f.pf.Stats.KernelRuns)
	}
	if f.pf.Stats.KernelFaults != 1 {
		t.Errorf("KernelFaults = %d, want 1 (resumed kernel divides by zero)", f.pf.Stats.KernelFaults)
	}
	assertUnitIdle(t, f, tr)
}

// A resumed VM burns PPU cycles like a fresh one: a kernel that spins for
// ~2000 cycles after its blocking prefetch returns must push the unit's
// busy time well past the bare fill wait (2000 cycles at the 1 GHz PPU
// clock is 32000 ticks; the stub memory fill is ~2000 ticks).
func TestBlockedResumeChargesPPUCycles(t *testing.T) {
	f := newFixture(t, blockedConfig())
	arr := f.arena.AllocWords("A", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pftag r1, 2
		movi  r2, 0
		movi  r3, 1000
	loop:
		addi  r2, r2, 1
		blt   r2, r3, loop
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	f.eng.Run()

	if f.pf.Stats.KernelFaults != 0 {
		t.Fatalf("KernelFaults = %d, want 0", f.pf.Stats.KernelFaults)
	}
	if got := f.pf.units[0].busyTicks; got < sim.Ticks(30000) {
		t.Errorf("busyTicks = %d, want ≥ 30000 (resumed kernel's ~2000 PPU cycles not charged)", got)
	}
}

// The blocked path reports kernel invocations on the trace bus just like
// the event path: a two-kernel chain shows two PFKernel events.
func TestBlockedChainEmitsKernelTrace(t *testing.T) {
	f := newFixture(t, blockedConfig())
	tr := NewRingTracer(256)
	f.pf.Tracer = tr
	arr := f.arena.AllocWords("A", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pftag r1, 2
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	f.eng.Run()

	if got := countKind(tr, TraceKernel); got != 2 {
		t.Fatalf("PFKernel events = %d, want 2 (chained kernel missing from trace)", got)
	}
	kernels := map[int32]bool{}
	for _, e := range tr.Events() {
		if e.Kind == TraceKernel {
			kernels[e.A] = true
		}
	}
	if !kernels[1] || !kernels[2] {
		t.Errorf("traced kernel ids = %v, want {1, 2}", kernels)
	}
}

// A tagged prefetch rejected by the full request queue must resume the
// suspended PPU exactly once. The queue is one deep and the pump is gated
// by exhausted MSHRs, so the kernel's second (tagged) request is rejected
// at enqueue.
func TestBlockedDropAtRequestQueueResumesOnce(t *testing.T) {
	cfg := blockedConfig()
	cfg.ReqQueue = 1
	f := newFixture(t, cfg)
	tr := NewRingTracer(256)
	f.pf.Tracer = tr
	arr := f.arena.AllocWords("A", 1024)
	fill := f.arena.AllocWords("F", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 64
		pf    r1
		addi  r1, r1, 64
		pftag r1, 2
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	// Occupy 11 of the 12 L1 MSHRs with demand misses outside the filter
	// range; the observed load takes the twelfth, so the pump stays gated
	// and the kernel's untagged request parks in the one queue slot.
	for i := uint64(0); i < 11; i++ {
		f.demandLoad(fill.Base + i*64)
	}
	f.demandLoad(arr.Base)
	f.eng.Run()

	if f.pf.Stats.ReqDropped != 1 {
		t.Fatalf("ReqDropped = %d, want 1; stats = %+v", f.pf.Stats.ReqDropped, f.pf.Stats)
	}
	if f.pf.Stats.KernelRuns != 1 {
		t.Errorf("KernelRuns = %d, want 1 (dropped chain must not run its kernel)", f.pf.Stats.KernelRuns)
	}
	dropped := false
	for _, e := range tr.Events() {
		if e.Kind == TraceDrop && e.A == trace.DropQueue {
			dropped = true
		}
	}
	if !dropped {
		t.Error("no PFDrop event with reason DropQueue")
	}
	assertUnitIdle(t, f, tr)
}

// A tagged prefetch to an unmapped page is discarded at translation (§5.3)
// and must resume the suspended PPU exactly once.
func TestBlockedDropAtTLBResumesOnce(t *testing.T) {
	f := newFixture(t, blockedConfig())
	tr := NewRingTracer(256)
	f.pf.Tracer = tr
	arr := f.arena.AllocWords("A", 8)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		movi  r2, 1048576
		add   r1, r1, r2
		pftag r1, 2
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	f.eng.Run()

	if f.pf.Stats.TLBDrops != 1 {
		t.Fatalf("TLBDrops = %d, want 1", f.pf.Stats.TLBDrops)
	}
	if f.pf.Stats.Issued != 0 {
		t.Errorf("Issued = %d, want 0", f.pf.Stats.Issued)
	}
	if f.pf.Stats.KernelRuns != 1 {
		t.Errorf("KernelRuns = %d, want 1 (chained kernel must not run after a TLB drop)", f.pf.Stats.KernelRuns)
	}
	assertUnitIdle(t, f, tr)
}

// A tagged prefetch whose translation succeeds but finds no free MSHR is
// discarded and must resume the suspended PPU exactly once. The request
// passes the pump gate while MSHRs are free, then demand misses exhaust
// them during the ~300-tick page walk.
func TestBlockedDropAtMSHRResumesOnce(t *testing.T) {
	f := newFixture(t, blockedConfig())
	tr := NewRingTracer(256)
	f.pf.Tracer = tr
	arr := f.arena.AllocWords("A", 1024)
	fill := f.arena.AllocWords("F", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 64
		pftag r1, 2
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	// The cold-started kernel emits its request at ~900 ticks and the
	// first-touch translation walks the page table for 300 more; fill the
	// remaining 11 MSHRs inside that window so the post-translate check
	// fails.
	f.eng.Schedule(1000, thunk(func() {
		for i := uint64(0); i < 11; i++ {
			f.demandLoad(fill.Base + i*64)
		}
	}), 0, 0)
	f.eng.Run()

	if f.pf.Stats.MSHRDrops == 0 {
		t.Fatalf("MSHRDrops = 0, want ≥ 1; stats = %+v", f.pf.Stats)
	}
	if f.pf.Stats.KernelRuns != 1 {
		t.Errorf("KernelRuns = %d, want 1 (chained kernel must not run after an MSHR drop)", f.pf.Stats.KernelRuns)
	}
	dropped := false
	for _, e := range tr.Events() {
		if e.Kind == TraceDrop && e.A == trace.DropMSHR {
			dropped = true
		}
	}
	if !dropped {
		t.Error("no PFDrop event with reason DropMSHR")
	}
	assertUnitIdle(t, f, tr)
}

// A prefetch whose target is already resident closes through the resident
// counters, not the fill-latency mean: resident lookups return in the
// cache's hit time and would make real fills look fast.
func TestResidentHitSplitFromRealFills(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	arr := f.arena.AllocWords("A", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pf    r1
		halt
	`))
	// Range covers only the first line so the warming load below does not
	// itself trigger the kernel.
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.Base + 64,
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	// Warm the kernel's target line with a demand miss…
	f.demandLoad(arr.Base + 128)
	f.eng.Run()
	// …then trigger the kernel: its prefetch hits the resident line.
	f.demandLoad(arr.Base)
	f.eng.Run()

	s := &f.pf.Stats
	if s.Issued != 1 {
		t.Fatalf("Issued = %d, want 1", s.Issued)
	}
	if s.ResidentHits != 1 || s.FillCount != 0 {
		t.Errorf("ResidentHits = %d, FillCount = %d; want 1, 0", s.ResidentHits, s.FillCount)
	}
	if s.ResidentLatSum <= 0 {
		t.Errorf("ResidentLatSum = %d, want > 0", s.ResidentLatSum)
	}
	if s.FillLatencySum != 0 {
		t.Errorf("FillLatencySum = %d, want 0 (resident hit leaked into fill stats)", s.FillLatencySum)
	}
}
