package cpu

import (
	"math/rand"
	"testing"

	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// thunk is a test-local Handler that runs a closure.
type thunk func()

func (f thunk) Handle(sim.Ticks, uint64, uint64) { f() }

type sliceStream struct {
	ops []MicroOp
	i   int
}

func (s *sliceStream) Next() (MicroOp, bool) {
	if s.i >= len(s.ops) {
		return MicroOp{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

func intOp(deps ...int64) MicroOp {
	op := MicroOp{Kind: OpInt, Deps: [2]int64{NoDep, NoDep}}
	for i, d := range deps {
		op.Deps[i] = d
	}
	return op
}

func loadOp(addr uint64, deps ...int64) MicroOp {
	op := MicroOp{Kind: OpLoad, Addr: addr, Deps: [2]int64{NoDep, NoDep}}
	for i, d := range deps {
		op.Deps[i] = d
	}
	return op
}

// fixedMem services loads with constant latency.
type fixedMem struct {
	eng      *sim.Engine
	latency  sim.Ticks
	issued   int
	maxInFly int
	inFlight int
}

func (m *fixedMem) ports() Ports {
	return Ports{Load: func(addr uint64, pc int, h sim.Handler, a uint64) {
		m.issued++
		m.inFlight++
		if m.inFlight > m.maxInFly {
			m.maxInFly = m.inFlight
		}
		m.eng.ScheduleAfter(m.latency, thunk(func() {
			m.inFlight--
			h.Handle(m.eng.Now(), a, 0)
		}), 0, 0)
	}}
}

func testConfig() Config {
	return Config{
		Clock: sim.ClockFromMHz(3200), Width: 3, ROB: 40, LQ: 16, SQ: 32,
		MispredictPenalty: 10,
	}
}

func runOps(t *testing.T, cfg Config, latency sim.Ticks, ops []MicroOp) (*Core, *fixedMem) {
	t.Helper()
	eng := sim.NewEngine()
	mem := &fixedMem{eng: eng, latency: latency}
	core := New(eng, cfg, mem.ports())
	finished := false
	core.Run(&sliceStream{ops: ops}, func() { finished = true })
	eng.Run()
	if !finished {
		t.Fatal("core never finished")
	}
	return core, mem
}

func TestIndependentLoadsOverlap(t *testing.T) {
	const n = 8
	var ops []MicroOp
	for i := 0; i < n; i++ {
		ops = append(ops, loadOp(uint64(i*64)))
	}
	core, mem := runOps(t, testConfig(), 1000, ops)
	if mem.maxInFly < 4 {
		t.Errorf("max loads in flight = %d, want ≥4 (MLP)", mem.maxInFly)
	}
	// Overlapped: total ≪ n × latency.
	if core.Stats.FinishTick > 3*1000 {
		t.Errorf("finish at %d ticks; %d independent loads should overlap", core.Stats.FinishTick, n)
	}
}

func TestDependentLoadsSerialise(t *testing.T) {
	const n = 8
	var ops []MicroOp
	for i := 0; i < n; i++ {
		if i == 0 {
			ops = append(ops, loadOp(0))
		} else {
			ops = append(ops, loadOp(uint64(i*64), int64(i-1)))
		}
	}
	core, mem := runOps(t, testConfig(), 1000, ops)
	if mem.maxInFly != 1 {
		t.Errorf("max loads in flight = %d, want 1 (dependent chain)", mem.maxInFly)
	}
	if core.Stats.FinishTick < n*1000 {
		t.Errorf("finish at %d ticks, want ≥ %d (serialised)", core.Stats.FinishTick, n*1000)
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// One load at the head blocks retirement; int ops fill the small window,
	// so the trailing loads cannot dispatch until the head load completes.
	// Total time is therefore ≥ two serialised memory latencies.
	cfg := testConfig()
	cfg.ROB = 8
	var ops []MicroOp
	ops = append(ops, loadOp(0))
	for i := 0; i < 7; i++ {
		ops = append(ops, intOp())
	}
	for i := 0; i < 4; i++ {
		ops = append(ops, loadOp(uint64(64+i*64)))
	}
	const lat = 10000
	core, mem := runOps(t, cfg, lat, ops)
	if core.Stats.FinishTick < 2*lat {
		t.Errorf("finish at %d, want ≥ %d: full ROB must serialise the load groups",
			core.Stats.FinishTick, 2*lat)
	}
	if mem.maxInFly > 4 {
		t.Errorf("max in flight = %d, want ≤ 4", mem.maxInFly)
	}

	// Control: with a large ROB all five loads overlap.
	cfg.ROB = 40
	core2, _ := runOps(t, cfg, lat, ops)
	if core2.Stats.FinishTick >= 2*lat {
		t.Errorf("large-ROB finish at %d, want < %d (all loads overlap)",
			core2.Stats.FinishTick, 2*lat)
	}
}

func TestLQLimitsOutstandingLoads(t *testing.T) {
	cfg := testConfig()
	cfg.LQ = 2
	var ops []MicroOp
	for i := 0; i < 10; i++ {
		ops = append(ops, loadOp(uint64(i*64)))
	}
	_, mem := runOps(t, cfg, 5000, ops)
	if mem.maxInFly > 2 {
		t.Errorf("max in flight = %d, want ≤ LQ=2", mem.maxInFly)
	}
}

func TestIntChainLatency(t *testing.T) {
	// A chain of n dependent 1-cycle int ops takes at least n cycles.
	const n = 20
	var ops []MicroOp
	for i := 0; i < n; i++ {
		if i == 0 {
			ops = append(ops, intOp())
		} else {
			ops = append(ops, intOp(int64(i-1)))
		}
	}
	core, _ := runOps(t, testConfig(), 0, ops)
	if core.Stats.Cycles < n {
		t.Errorf("cycles = %d, want ≥ %d for dependent int chain", core.Stats.Cycles, n)
	}
	if core.Stats.Ops != n {
		t.Errorf("ops retired = %d, want %d", core.Stats.Ops, n)
	}
}

func TestWidthLimitsThroughput(t *testing.T) {
	// 300 independent int ops on a 3-wide machine need ≥100 cycles.
	var ops []MicroOp
	for i := 0; i < 300; i++ {
		ops = append(ops, intOp())
	}
	core, _ := runOps(t, testConfig(), 0, ops)
	if core.Stats.Cycles < 100 {
		t.Errorf("cycles = %d, want ≥ 100 (3-wide)", core.Stats.Cycles)
	}
	if core.Stats.Cycles > 130 {
		t.Errorf("cycles = %d, want ≈100 for independent ops", core.Stats.Cycles)
	}
}

func TestMispredictPenalty(t *testing.T) {
	// Alternating taken/not-taken branches confound the predictor at first;
	// compare against always-taken branches, which it learns quickly.
	mk := func(pattern func(i int) bool) []MicroOp {
		var ops []MicroOp
		for i := 0; i < 400; i++ {
			ops = append(ops, MicroOp{Kind: OpBranch, PC: 1, Taken: pattern(i),
				Deps: [2]int64{NoDep, NoDep}})
		}
		return ops
	}
	// An LCG-driven direction sequence is unlearnable by gshare; a constant
	// direction is learnt after a few cold mispredictions.
	lcg := uint64(12345)
	random := func(i int) bool {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg>>63 == 1
	}
	steady, _ := runOps(t, testConfig(), 0, mk(func(i int) bool { return true }))
	noisy, _ := runOps(t, testConfig(), 0, mk(random))
	if noisy.Stats.Mispredicts <= steady.Stats.Mispredicts {
		t.Errorf("mispredicts: noisy=%d steady=%d", noisy.Stats.Mispredicts, steady.Stats.Mispredicts)
	}
	if noisy.Stats.Cycles <= steady.Stats.Cycles {
		t.Errorf("cycles: noisy=%d steady=%d; mispredicts should cost time",
			noisy.Stats.Cycles, steady.Stats.Cycles)
	}
}

func TestConfigOpSideEffect(t *testing.T) {
	ran := false
	ops := []MicroOp{
		{Kind: OpConfig, Deps: [2]int64{NoDep, NoDep}, Do: func() { ran = true }},
		intOp(),
	}
	runOps(t, testConfig(), 0, ops)
	if !ran {
		t.Error("config op side effect did not run")
	}
}

func TestSWPrefetchPort(t *testing.T) {
	eng := sim.NewEngine()
	var pfAddrs []uint64
	ports := Ports{
		Load:       func(addr uint64, pc int, h sim.Handler, a uint64) { h.Handle(eng.Now(), a, 0) },
		SWPrefetch: func(addr uint64) { pfAddrs = append(pfAddrs, addr) },
	}
	core := New(eng, testConfig(), ports)
	ops := []MicroOp{{Kind: OpSWPf, Addr: 0xbeef0, Deps: [2]int64{NoDep, NoDep}}}
	core.Run(&sliceStream{ops: ops}, nil)
	eng.Run()
	if len(pfAddrs) != 1 || pfAddrs[0] != 0xbeef0 {
		t.Errorf("software prefetches issued: %#x", pfAddrs)
	}
	if core.Stats.SWPrefetch != 1 {
		t.Errorf("SWPrefetch stat = %d, want 1", core.Stats.SWPrefetch)
	}
}

func TestStorePort(t *testing.T) {
	eng := sim.NewEngine()
	stores := 0
	ports := Ports{
		Load:  func(addr uint64, pc int, h sim.Handler, a uint64) { h.Handle(eng.Now(), a, 0) },
		Store: func(addr uint64, pc int) { stores++ },
	}
	core := New(eng, testConfig(), ports)
	ops := []MicroOp{{Kind: OpStore, Addr: 0x100, Deps: [2]int64{NoDep, NoDep}}}
	core.Run(&sliceStream{ops: ops}, nil)
	eng.Run()
	if stores != 1 || core.Stats.Stores != 1 {
		t.Errorf("stores seen=%d stat=%d, want 1", stores, core.Stats.Stores)
	}
}

func TestLoadDependentComputeWaits(t *testing.T) {
	// int op depending on a slow load must not complete before the load.
	ops := []MicroOp{
		loadOp(0),
		intOp(0),
	}
	core, _ := runOps(t, testConfig(), 2000, ops)
	if core.Stats.FinishTick < 2000 {
		t.Errorf("finished at %d, want ≥ load latency 2000", core.Stats.FinishTick)
	}
}

func TestStatsCountKinds(t *testing.T) {
	ops := []MicroOp{
		intOp(), loadOp(0),
		{Kind: OpStore, Addr: 8, Deps: [2]int64{NoDep, NoDep}},
		{Kind: OpBranch, Taken: true, Deps: [2]int64{NoDep, NoDep}},
		{Kind: OpMul, Deps: [2]int64{NoDep, NoDep}},
		{Kind: OpDiv, Deps: [2]int64{NoDep, NoDep}},
	}
	core, _ := runOps(t, testConfig(), 100, ops)
	s := core.Stats
	if s.Ops != 6 || s.Loads != 1 || s.Stores != 1 || s.Branches != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSQLimitsOutstandingStores(t *testing.T) {
	cfg := testConfig()
	cfg.SQ = 2
	var ops []MicroOp
	// A long-latency load at the head keeps stores from retiring, so the
	// 2-entry store queue must throttle dispatch.
	ops = append(ops, loadOp(0))
	for i := 0; i < 6; i++ {
		ops = append(ops, MicroOp{Kind: OpStore, Addr: uint64(64 + i*64),
			Deps: [2]int64{NoDep, NoDep}})
	}
	eng := sim.NewEngine()
	mem := &fixedMem{eng: eng, latency: 5000}
	stores := 0
	ports := mem.ports()
	ports.Store = func(addr uint64, pc int) { stores++ }
	core := New(eng, cfg, ports)
	core.Run(&sliceStream{ops: ops}, nil)
	eng.RunUntil(2500)
	if stores > 2 {
		t.Errorf("%d stores issued while head load blocks retirement, want ≤ SQ=2", stores)
	}
	eng.Run()
	if core.Stats.Stores != 6 {
		t.Errorf("stores retired = %d, want 6", core.Stats.Stores)
	}
}

func TestMulDivLatencies(t *testing.T) {
	// A dependent chain of n multiplies takes ≈3n cycles; divides ≈12n.
	mk := func(kind OpKind, n int) []MicroOp {
		var ops []MicroOp
		for i := 0; i < n; i++ {
			op := MicroOp{Kind: kind, Deps: [2]int64{NoDep, NoDep}}
			if i > 0 {
				op.Deps[0] = int64(i - 1)
			}
			ops = append(ops, op)
		}
		return ops
	}
	mul, _ := runOps(t, testConfig(), 0, mk(OpMul, 20))
	div, _ := runOps(t, testConfig(), 0, mk(OpDiv, 20))
	if mul.Stats.Cycles < 60 {
		t.Errorf("mul chain = %d cycles, want ≥ 60", mul.Stats.Cycles)
	}
	if div.Stats.Cycles < 240 {
		t.Errorf("div chain = %d cycles, want ≥ 240", div.Stats.Cycles)
	}
	if div.Stats.Cycles <= mul.Stats.Cycles {
		t.Error("div chain not slower than mul chain")
	}
}

func TestPredictableBranchesLearnt(t *testing.T) {
	// A loop-closing branch pattern (taken, taken, ..., not-taken) repeated:
	// gshare should reach high accuracy after warmup.
	var ops []MicroOp
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 8; i++ {
			ops = append(ops, MicroOp{Kind: OpBranch, PC: 3, Taken: i != 7,
				Deps: [2]int64{NoDep, NoDep}})
		}
	}
	core, _ := runOps(t, testConfig(), 0, ops)
	rate := float64(core.Stats.Mispredicts) / float64(core.Stats.Branches)
	if rate > 0.10 {
		t.Errorf("mispredict rate %.2f on a periodic pattern, want < 0.10", rate)
	}
}

type nopSink struct{}

func (nopSink) Event(trace.Event) {}

// TestIdleSkipMatchesDenseChain runs one random program — dependent and
// independent loads completing off the clock edge, mispredicting branches,
// multiplies — twice: untraced, where idle ticks jump ahead, and with a
// trace bus attached, which disables the jump and keeps one tick per cycle.
// Timing, the engine's sequence counter and its final time must be
// identical, and the untraced run must actually have skipped cycles.
func TestIdleSkipMatchesDenseChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ops []MicroOp
	for i := 0; i < 3000; i++ {
		var dep int64 = NoDep
		if i > 0 && rng.Intn(2) == 0 {
			dep = int64(i - 1 - rng.Intn(min(i, 30)))
		}
		switch r := rng.Intn(10); {
		case r < 4:
			ops = append(ops, loadOp(uint64(rng.Intn(1<<20))*8, dep))
		case r < 6:
			ops = append(ops, MicroOp{Kind: OpBranch, PC: rng.Intn(4), Taken: rng.Intn(2) == 0,
				Deps: [2]int64{dep, NoDep}})
		case r < 7:
			ops = append(ops, MicroOp{Kind: OpMul, Deps: [2]int64{dep, NoDep}})
		default:
			ops = append(ops, intOp(dep))
		}
	}
	run := func(traced bool) (Stats, sim.Ticks, uint64, int) {
		eng := sim.NewEngine()
		mem := &fixedMem{eng: eng, latency: 1003}
		core := New(eng, testConfig(), mem.ports())
		if traced {
			core.Bus = trace.NewBus(nopSink{})
		}
		core.Run(&sliceStream{ops: ops}, nil)
		steps := 0
		for eng.Step() {
			steps++
		}
		return core.Stats, eng.Now(), eng.Seq(), steps
	}
	skipS, skipNow, skipSeq, skipSteps := run(false)
	denseS, denseNow, denseSeq, denseSteps := run(true)
	if skipS != denseS || skipNow != denseNow || skipSeq != denseSeq {
		t.Fatalf("idle skip diverged from the dense chain:\n skip  %+v now=%d seq=%d\n dense %+v now=%d seq=%d",
			skipS, skipNow, skipSeq, denseS, denseNow, denseSeq)
	}
	t.Logf("engine steps: %d with idle skip, %d dense", skipSteps, denseSteps)
	if skipSteps >= denseSteps {
		t.Errorf("untraced run took %d engine steps, dense chain %d: no idle cycle was skipped", skipSteps, denseSteps)
	}
}
