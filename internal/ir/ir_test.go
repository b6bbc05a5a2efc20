package ir

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
)

// buildSumLoop builds: for (i = 0; i < n; i++) acc += arr[i]; return acc.
// Args: 0 = arr base, 1 = n.
func buildSumLoop(t testing.TB) *Fn {
	t.Helper()
	b := NewBuilder("sum", 2)
	entry := b.NewBlock("entry")
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")

	b.SetBlock(entry)
	base := b.Arg(0)
	n := b.Arg(1)
	zero := b.Const(0)
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi()
	acc := b.Phi()
	cond := b.Bin(CmpLTU, i, n)
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	eight := b.Const(8)
	off := b.Mul(i, eight)
	addr := b.Add(base, off)
	v := b.Load(addr, "arr")
	acc2 := b.Add(acc, v)
	one := b.Const(1)
	i2 := b.Add(i, one)
	b.Br(head)

	b.SetBlock(exit)
	b.Ret(acc)

	b.SetPhiArgs(i, zero, i2)
	b.SetPhiArgs(acc, zero, acc2)

	fn, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return fn
}

func drain(t testing.TB, it *Interp) []cpu.MicroOp {
	t.Helper()
	var ops []cpu.MicroOp
	for {
		op, ok := it.Next()
		if !ok {
			break
		}
		ops = append(ops, op)
	}
	return ops
}

func TestSumLoopFunctional(t *testing.T) {
	fn := buildSumLoop(t)
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	arr := arena.AllocWords("arr", 100)
	var want uint64
	for i := uint64(0); i < 100; i++ {
		bk.Write64(arr.Base+i*8, i*3)
		want += i * 3
	}
	it := NewInterp(fn, bk, nil, new(int64), arr.Base, 100)
	ops := drain(t, it)
	got, ok := it.Result()
	if !ok || got != want {
		t.Errorf("sum = %d (ok=%v), want %d", got, ok, want)
	}
	loads := 0
	for _, op := range ops {
		if op.Kind == cpu.OpLoad {
			loads++
		}
	}
	if loads != 100 {
		t.Errorf("loads emitted = %d, want 100", loads)
	}
}

// TestCloneOwnsPhiScratch forks an interpreter mid-loop, after enterBlock
// has grown its phi scratch slices, and runs parent and fork interleaved:
// both must finish with the same sum and micro-op stream as a straight run,
// and the fork must never write into the parent's scratch arrays.
func TestCloneOwnsPhiScratch(t *testing.T) {
	fn := buildSumLoop(t)
	bk := mem.NewBacking()
	arr := mem.NewArena(bk).AllocWords("arr", 50)
	for i := uint64(0); i < 50; i++ {
		bk.Write64(arr.Base+i*8, i+1)
	}
	want := drain(t, NewInterp(fn, bk, nil, new(int64), arr.Base, 50))

	parent := NewInterp(fn, bk, nil, new(int64), arr.Base, 50)
	var got [2][]cpu.MicroOp
	for i := 0; i < len(want)/3; i++ {
		op, _ := parent.Next()
		got[0] = append(got[0], op)
	}
	if cap(parent.phiVals) == 0 {
		t.Fatal("parent never entered a block with phis before the fork")
	}
	counter := *parent.counter
	fork := parent.Clone(bk, nil, &counter)
	got[1] = append(got[1], got[0]...)
	for done := [2]bool{}; !done[0] || !done[1]; {
		for k, it := range []*Interp{parent, fork} {
			if op, ok := it.Next(); ok {
				got[k] = append(got[k], op)
			} else {
				done[k] = true
			}
		}
	}
	if &fork.phiVals[:1][0] == &parent.phiVals[:1][0] || &fork.phiOps[:1][0] == &parent.phiOps[:1][0] {
		t.Error("fork shares the parent's phi scratch arrays")
	}
	for k, name := range []string{"parent", "fork"} {
		if len(got[k]) != len(want) {
			t.Fatalf("%s emitted %d ops, want %d", name, len(got[k]), len(want))
		}
		for i := range want {
			g, w := got[k][i], want[i]
			if g.Kind != w.Kind || g.PC != w.PC || g.Addr != w.Addr || g.Deps != w.Deps || g.Taken != w.Taken {
				t.Fatalf("%s op %d = %+v, want %+v", name, i, g, w)
			}
		}
	}
	for _, it := range []*Interp{parent, fork} {
		if sum, ok := it.Result(); !ok || sum != 50*51/2 {
			t.Errorf("sum = %d (ok=%v), want %d", sum, ok, 50*51/2)
		}
	}
}

func TestLoadDependenceThreadsThroughAddress(t *testing.T) {
	fn := buildSumLoop(t)
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	arr := arena.AllocWords("arr", 4)
	it := NewInterp(fn, bk, nil, new(int64), arr.Base, 4)
	ops := drain(t, it)
	for _, op := range ops {
		if op.Kind == cpu.OpLoad {
			if op.Deps[0] == cpu.NoDep {
				t.Fatal("load has no address dependence")
			}
		}
	}
}

func TestVerifierCatchesMissingTerminator(t *testing.T) {
	b := NewBuilder("bad", 0)
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	b.Const(1)
	if _, err := b.Finish(); err == nil {
		t.Error("missing terminator not caught")
	}
}

func TestVerifierCatchesPhiArity(t *testing.T) {
	b := NewBuilder("bad", 0)
	e := b.NewBlock("entry")
	l := b.NewBlock("loop")
	b.SetBlock(e)
	c := b.Const(1)
	b.Br(l)
	b.SetBlock(l)
	p := b.Phi()
	b.SetPhiArgs(p, c, c, c) // loop has preds {entry, loop} = 2, not 3
	b.Br(l)
	if _, err := b.Finish(); err == nil {
		t.Error("phi arity mismatch not caught")
	}
}

func TestVerifierCatchesUseBeforeDef(t *testing.T) {
	b := NewBuilder("bad", 0)
	e := b.NewBlock("entry")
	o := b.NewBlock("other")
	b.SetBlock(e)
	b.Br(o)
	b.SetBlock(o)
	// Manually force a use of a value defined later in the same block.
	x := b.Const(5)
	y := b.Add(x, x)
	b.fn.Block(o).Instrs[0], b.fn.Block(o).Instrs[1] = b.fn.Block(o).Instrs[1], b.fn.Block(o).Instrs[0]
	_ = y
	b.Ret(NoValue)
	if _, err := b.Finish(); err == nil {
		t.Error("use-before-def not caught")
	}
}

func TestDominators(t *testing.T) {
	fn := buildSumLoop(t)
	idom := fn.Dominators()
	// entry=0 head=1 body=2 exit=3
	if idom[1] != 0 || idom[2] != 1 || idom[3] != 1 {
		t.Errorf("idom = %v, want [0/self, 0, 1, 1]", idom)
	}
	if !Dominates(idom, 0, 3) || Dominates(idom, 2, 3) {
		t.Error("Dominates relation wrong")
	}
}

func TestLoopAnalysisFindsInduction(t *testing.T) {
	fn := buildSumLoop(t)
	loops := fn.Loops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != 1 || l.Latch != 2 {
		t.Errorf("loop header/latch = b%d/b%d, want b1/b2", l.Header, l.Latch)
	}
	if !l.Contains(2) || l.Contains(0) || l.Contains(3) {
		t.Errorf("loop body wrong: %v", l.Blocks)
	}
	if l.Induction == nil {
		t.Fatal("induction variable not found")
	}
	if l.Induction.Step != 1 {
		t.Errorf("induction step = %d, want 1", l.Induction.Step)
	}
}

func TestLoopInvariant(t *testing.T) {
	fn := buildSumLoop(t)
	l := fn.Loops()[0]
	db := fn.defBlocks()
	base := Value(0) // arg 0 in entry
	if !fn.LoopInvariant(l, base, db) {
		t.Error("arg not loop invariant")
	}
	// The load (inside the body) is not invariant.
	for _, b := range fn.Blocks {
		for _, v := range b.Instrs {
			if fn.Instr(v).Op == Load && fn.LoopInvariant(l, v, db) {
				t.Error("in-loop load reported invariant")
			}
		}
	}
}

func TestBranchMicroOpsCarryDirection(t *testing.T) {
	fn := buildSumLoop(t)
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	arr := arena.AllocWords("arr", 3)
	it := NewInterp(fn, bk, nil, new(int64), arr.Base, 3)
	var taken, notTaken int
	for _, op := range drain(t, it) {
		if op.Kind == cpu.OpBranch {
			if op.Taken {
				taken++
			} else {
				notTaken++
			}
		}
	}
	if taken != 3 || notTaken != 1 {
		t.Errorf("branch directions taken=%d notTaken=%d, want 3/1", taken, notTaken)
	}
}

func TestCfgInstructionReachesSink(t *testing.T) {
	b := NewBuilder("cfg", 1)
	e := b.NewBlock("entry")
	b.SetBlock(e)
	lo := b.Arg(0)
	hi := b.Add(lo, b.Const(800))
	b.Cfg(CfgInfo{Kind: CfgBounds, Slot: 2, LoadKernel: 5, PFKernel: -1, EWMAGroup: -1}, lo, hi)
	b.Ret(NoValue)
	fn := b.MustFinish()

	var got *CfgInfo
	var gotArgs []uint64
	sink := sinkFunc(func(info CfgInfo, args []uint64) { got, gotArgs = &info, args })
	it := NewInterp(fn, mem.NewBacking(), sink, new(int64), 4096)
	ops := drain(t, it)
	if len(ops) == 0 {
		t.Fatal("no micro-ops emitted")
	}
	for _, op := range ops {
		if op.Kind == cpu.OpConfig {
			op.Do()
		}
	}
	if got == nil || got.Slot != 2 || got.LoadKernel != 5 {
		t.Fatalf("sink saw %+v", got)
	}
	if len(gotArgs) != 2 || gotArgs[0] != 4096 || gotArgs[1] != 4896 {
		t.Errorf("sink args = %v", gotArgs)
	}
}

type sinkFunc func(CfgInfo, []uint64)

func (f sinkFunc) Configure(info CfgInfo, args []uint64) { f(info, args) }

func TestMaxStepsGuard(t *testing.T) {
	b := NewBuilder("inf", 0)
	e := b.NewBlock("entry")
	l := b.NewBlock("loop")
	b.SetBlock(e)
	b.Br(l)
	b.SetBlock(l)
	c := b.Const(1)
	b.CondBr(c, l, l)
	fn := b.MustFinish()
	it := NewInterp(fn, mem.NewBacking(), nil, new(int64))
	it.SetMaxSteps(1000)
	defer func() {
		if recover() == nil {
			t.Error("runaway loop not caught")
		}
	}()
	drain(t, it)
}

func TestPrinterMentionsStructure(t *testing.T) {
	fn := buildSumLoop(t)
	s := fn.String()
	for _, want := range []string{"func sum", "phi", "load", "condbr", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("printer output missing %q:\n%s", want, s)
		}
	}
}

// Property: interpreting a randomly generated straight-line expression DAG
// matches direct Go evaluation.
func TestInterpMatchesDirectEval(t *testing.T) {
	binOps := []Op{Add, Sub, Mul, And, Or, Xor, Shl, Shr, CmpEQ, CmpLTU}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("expr", 0)
		e := b.NewBlock("entry")
		b.SetBlock(e)

		var vals []Value
		var model []uint64
		for i := 0; i < 4; i++ {
			c := int64(rng.Uint32())
			vals = append(vals, b.Const(c))
			model = append(model, uint64(c))
		}
		for i := 0; i < 30; i++ {
			op := binOps[rng.Intn(len(binOps))]
			x := rng.Intn(len(vals))
			y := rng.Intn(len(vals))
			vals = append(vals, b.Bin(op, vals[x], vals[y]))
			model = append(model, evalBin(op, model[x], model[y]))
		}
		last := vals[len(vals)-1]
		b.Ret(last)
		fn := b.MustFinish()
		it := NewInterp(fn, mem.NewBacking(), nil, new(int64))
		drain(t, it)
		got, ok := it.Result()
		return ok && got == model[len(model)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: op IDs in the emitted stream are dense and deps always refer to
// earlier ops.
func TestStreamDepOrdering(t *testing.T) {
	fn := buildSumLoop(t)
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	arr := arena.AllocWords("arr", 50)
	it := NewInterp(fn, bk, nil, new(int64), arr.Base, 50)
	id := int64(0)
	for {
		op, ok := it.Next()
		if !ok {
			break
		}
		for _, d := range op.Deps {
			if d != cpu.NoDep && d >= id {
				t.Fatalf("op %d depends on future op %d", id, d)
			}
		}
		id++
	}
}
