// Package cpu models the main out-of-order core of Table 1 as a
// window-based timing model: micro-ops dispatch in order into a reorder
// buffer, execute when their data dependences resolve (loads going to the
// memory hierarchy), and retire in order. That reproduces the first-order
// behaviour the paper leans on — independent loads overlap up to
// ROB/LQ/MSHR limits while dependent loads serialise (Figure 2) — without
// simulating a full pipeline.
package cpu

import (
	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// OpKind classifies a micro-op.
type OpKind int

// Micro-op kinds.
const (
	OpInt    OpKind = iota // 1-cycle integer ALU op
	OpMul                  // 3-cycle multiply
	OpDiv                  // 12-cycle divide
	OpLoad                 // demand load through the cache hierarchy
	OpStore                // store, retired into a write buffer
	OpSWPf                 // software prefetch instruction
	OpBranch               // conditional branch
	OpConfig               // prefetcher configuration instruction
)

// NoDep marks an unused dependence slot.
const NoDep int64 = -1

// MicroOp is one dynamic instruction. Deps name earlier ops (by dynamic ID,
// assigned in stream order) whose results this op consumes.
type MicroOp struct {
	Kind  OpKind
	PC    int      // static instruction id (stride prefetcher, branch predictor)
	Addr  uint64   // memory ops and software prefetches
	Deps  [2]int64 // producing op IDs, NoDep if unused
	Taken bool     // branches: resolved direction
	Do    func()   // OpConfig: side effect applied at dispatch
}

// Stream supplies micro-ops in program order.
type Stream interface {
	// Next returns the next micro-op, or ok=false at end of program.
	Next() (op MicroOp, ok bool)
}

// Config sizes the core (Table 1 defaults come from the harness package).
type Config struct {
	Clock             sim.Clock
	Width             int   // dispatch/retire width
	ROB               int   // reorder buffer entries
	LQ                int   // load queue entries
	SQ                int   // store queue entries
	MispredictPenalty int64 // cycles of redirect after a mispredicted branch
}

// Ports connect the core to the memory system and prefetch paths.
type Ports struct {
	// Load issues a demand load; h.Handle(at, a, 0) must fire at completion
	// time. The handler-plus-payload shape keeps the per-load path free of
	// closure allocations.
	Load func(addr uint64, pc int, h sim.Handler, a uint64)
	// Store posts a demand store (timing-relevant only for cache state).
	Store func(addr uint64, pc int)
	// SWPrefetch issues a software-prefetch request.
	SWPrefetch func(addr uint64)
}

// Stats describes one finished run.
type Stats struct {
	Ops         int64 // dynamic micro-ops retired
	Loads       int64
	Stores      int64
	Branches    int64
	Mispredicts int64
	SWPrefetch  int64
	FinishTick  sim.Ticks
	Cycles      int64 // FinishTick in core cycles
}

const completionRing = 256 // must exceed any plausible ROB size

type robEntry struct {
	id         int64
	kind       OpKind
	addr       uint64
	pc         int
	deps       [2]int64
	readyAt    sim.Ticks // max of resolved dep completion times and dispatch
	unresolved int       // count of deps whose completion is still unknown
	issued     bool
	mispred    bool      // mispredicted branch: install redirect stall at issue
	completeAt sim.Ticks // -1 until known
}

// Core is the timing model. Create with New, then call Run.
type Core struct {
	eng   *sim.Engine
	cfg   Config
	ports Ports

	stream     Stream
	pendingOp  MicroOp // dispatch-rejected op, delivered before the stream
	hasPending bool
	nextID     int64
	// rob is a fixed ring buffer of cfg.ROB entries: robHead indexes the
	// oldest entry, robN counts occupancy. Retiring moves the head instead of
	// re-slicing, so the window's backing array lives for the whole run.
	rob        []robEntry
	robHead    int
	robN       int
	completion [completionRing]sim.Ticks
	known      [completionRing]bool
	// ringAddr/ringPC mirror each op's address and PC, indexed like the
	// completion ring, so a delayed load launch can be scheduled with just
	// the op id as payload (the entry is still in the window at launch time,
	// and completionRing > ROB keeps the slot from being reused under it).
	ringAddr   [completionRing]uint64
	ringPC     [completionRing]int32
	inflightLd int
	inflightSt int
	// unissuedN counts window entries with issued == false. It lets the
	// scheduler decide "can anything issue before the next load completion?"
	// without scanning the window every cycle.
	unissuedN int
	// dirty is set whenever window state changes between ticks in a way a
	// tick could act on — an op dispatched, or a completion recorded — and
	// cleared at the start of every full tick. While clear (and dispatch is
	// provably a no-op), a tick cannot retire, issue or dispatch anything,
	// so it can skip straight to scheduling its successor (see idleTick).
	dirty bool

	tickH     tickHandler
	launchH   launchHandler
	loadDoneH loadDoneHandler
	storeH    storeHandler
	swpfH     swpfHandler

	stallUntil      sim.Ticks // branch redirect: no dispatch before this
	redirectPending bool      // a mispredicted branch has not yet resolved
	tickPending     bool
	done            bool
	onDone          func()

	bp    branchPredictor
	Stats Stats

	// Bus, if set, receives CoreStall/CoreStallEnd events. Emission is
	// transition-gated (stallActive) so a stall spanning many ticks costs
	// two events, not one per tick, and a nil bus costs one branch.
	Bus         *trace.Bus
	stallActive [4]bool

	// OpBus, if set, receives one CoreDispatch event per dispatched micro-op
	// — the trace-capture feed (internal/tracein). It is separate from Bus so
	// that attaching an ordinary tracer never pays for, or sees, the per-op
	// stream; with no capture attached the cost is one branch per dispatch.
	OpBus *trace.Bus
}

// depDistMax caps a recorded dependence distance at what fits a uint32 half
// of Event.Dur. Any distance beyond the window (see depCompletion) resolves
// as "already retired", so clamping far-back producers is timing-neutral.
const depDistMax = 1<<31 - 1

// packDeps encodes a dispatched op's two dependence distances (id minus
// producer id, 0 for NoDep) into one word, low half Deps[0], high half
// Deps[1].
func packDeps(id int64, deps [2]int64) uint64 {
	var packed uint64
	for i, d := range deps {
		if d == NoDep {
			continue
		}
		rel := id - d
		if rel > depDistMax {
			rel = depDistMax
		}
		packed |= uint64(rel) << (32 * i)
	}
	return packed
}

// setStall emits a CoreStall/CoreStallEnd pair boundary when the given
// stall reason changes state; purely observational, never affects timing.
func (c *Core) setStall(reason int32, on bool) {
	if c.Bus == nil || c.stallActive[reason] == on {
		return
	}
	c.stallActive[reason] = on
	kind := trace.CoreStall
	if !on {
		kind = trace.CoreStallEnd
	}
	c.Bus.Emit(trace.Event{At: c.eng.Now(), Kind: kind, A: reason})
}

// New builds a core.
func New(eng *sim.Engine, cfg Config, ports Ports) *Core {
	if cfg.Width <= 0 || cfg.ROB <= 0 || cfg.ROB >= completionRing {
		panic("cpu: invalid core configuration")
	}
	c := &Core{eng: eng, cfg: cfg, ports: ports}
	c.rob = make([]robEntry, cfg.ROB)
	c.tickH.c = c
	c.launchH.c = c
	c.loadDoneH.c = c
	c.storeH.c = c
	c.swpfH.c = c
	c.bp.init()
	return c
}

// robAt returns the i-th oldest window entry (i < robN).
func (c *Core) robAt(i int) *robEntry {
	p := c.robHead + i
	if p >= len(c.rob) {
		p -= len(c.rob)
	}
	return &c.rob[p]
}

func (c *Core) robPush(e robEntry) {
	p := c.robHead + c.robN
	if p >= len(c.rob) {
		p -= len(c.rob)
	}
	c.rob[p] = e
	c.robN++
	c.unissuedN++
	c.dirty = true
}

func (c *Core) robPop() {
	c.robHead++
	if c.robHead == len(c.rob) {
		c.robHead = 0
	}
	c.robN--
}

// tickHandler runs one core cycle; the engine's clock slot carries it
// instead of a per-tick method-value closure.
type tickHandler struct{ c *Core }

func (h tickHandler) Handle(sim.Ticks, uint64, uint64) { h.c.tick() }

// launchHandler issues a load whose operands resolved in the future; a is
// the op id, resolved to address/PC through the mirror rings.
type launchHandler struct{ c *Core }

func (h launchHandler) Handle(_ sim.Ticks, a, _ uint64) { h.c.launchLoad(int64(a)) }

// loadDoneHandler receives a demand-load completion; a is the op id.
type loadDoneHandler struct{ c *Core }

func (h loadDoneHandler) Handle(at sim.Ticks, a, _ uint64) { h.c.loadComplete(int64(a), at) }

// storeHandler posts a retiring store to the memory port; a is the address,
// b the PC.
type storeHandler struct{ c *Core }

func (h storeHandler) Handle(_ sim.Ticks, a, b uint64) { h.c.ports.Store(a, int(int64(b))) }

// swpfHandler posts a software prefetch; a is the address.
type swpfHandler struct{ c *Core }

func (h swpfHandler) Handle(_ sim.Ticks, a, _ uint64) { h.c.ports.SWPrefetch(a) }

// Run begins executing the stream; onDone is called when the last op
// retires. Run must be called before the engine runs.
func (c *Core) Run(s Stream, onDone func()) {
	c.stream = s
	c.onDone = onDone
	c.scheduleTick(c.eng.Now())
}

// scheduleTick arms the engine's clock slot for the first core clock edge at
// or after at, unless a tick is already pending or the core has finished.
func (c *Core) scheduleTick(at sim.Ticks) {
	if c.tickPending || c.done {
		return
	}
	c.tickPending = true
	c.eng.ArmClock(c.cfg.Clock.NextEdge(at), c.tickH, 0)
}

func (c *Core) wake() { c.scheduleTick(c.eng.Now()) }

func (c *Core) depCompletion(id int64) (sim.Ticks, bool) {
	if id == NoDep {
		return 0, true
	}
	// Anything older than the window is certainly retired.
	if id < c.nextID-int64(c.cfg.ROB)-8 {
		return 0, true
	}
	slot := id % completionRing
	if c.known[slot] {
		return c.completion[slot], true
	}
	return 0, false
}

func (c *Core) recordCompletion(id int64, at sim.Ticks) {
	slot := id % completionRing
	c.completion[slot] = at
	c.known[slot] = true
	c.dirty = true
}

func (c *Core) tick() {
	c.tickPending = false
	now := c.eng.Now()

	if c.idleTick(now) {
		c.skipIdle(now)
		return
	}
	c.dirty = false

	c.retire(now)
	c.resolveAndIssue(now)
	c.dispatch(now)

	if c.robN == 0 && c.streamDone() {
		c.finish(now)
		return
	}
	c.scheduleNext(now)
}

// idleTick reports whether this tick provably cannot change core state, so
// tick() may skip retire/resolveAndIssue/dispatch and only reschedule. The
// conditions mirror what each stage needs to make progress:
//
//   - retire: the head has no recorded completion (completions only arrive
//     via recordCompletion, which sets dirty);
//   - resolveAndIssue: the previous full tick issued everything resolvable,
//     and nothing was dispatched or completed since (dirty is clear), so
//     every unissued entry still waits on an unrecorded dependency;
//   - dispatch: the stream is gone, the window is full, or dispatch is
//     stalled behind a redirect.
//
// A tracer (Bus) disables the fast path so stall-transition events are
// emitted on the exact cycle they occur.
func (c *Core) idleTick(now sim.Ticks) bool {
	if c.dirty || c.Bus != nil || c.robN == 0 || c.unissuedN == 0 {
		return false
	}
	if c.robAt(0).completeAt >= 0 {
		return false
	}
	return c.stream == nil || c.robN >= c.cfg.ROB || now < c.stallUntil || c.redirectPending
}

// skipIdle re-arms the tick after an idle one, jumping over every cycle
// that would be idle too. While idleTick holds, only another event can
// change core state, and time itself matters only through stallUntil; so
// every tick before the first clock edge at or after the earlier of the
// next heap event and a future stallUntil would find idleTick true again
// and do nothing but re-arm. The skipped ticks are charged to the engine's
// sequence counter (ArmClock's skipped), which keeps every later
// tie-break, Seq, Pending and machine digest identical to the dense chain.
func (c *Core) skipIdle(now sim.Ticks) {
	p := c.cfg.Clock.Period
	next := now + p
	limit, ok := c.eng.NextEventAt()
	if c.stallUntil > now && (!ok || c.stallUntil < limit) {
		limit, ok = c.stallUntil, true
	}
	if ok {
		if edge := c.cfg.Clock.NextEdge(limit); edge > next {
			next = edge
		}
	}
	c.tickPending = true
	c.eng.ArmClock(next, c.tickH, uint64((next-now)/p-1))
}

func (c *Core) streamDone() bool { return c.stream == nil && !c.hasPending }

func (c *Core) retire(now sim.Ticks) {
	retired := 0
	for retired < c.cfg.Width && c.robN > 0 {
		head := c.robAt(0)
		if head.completeAt < 0 || head.completeAt > now {
			break
		}
		switch head.kind {
		case OpLoad:
			c.inflightLd--
			c.Stats.Loads++
		case OpStore:
			c.inflightSt--
			c.Stats.Stores++
		case OpBranch:
			c.Stats.Branches++
		case OpSWPf:
			c.Stats.SWPrefetch++
		}
		c.Stats.Ops++
		c.Stats.FinishTick = now
		c.robPop()
		retired++
	}
	c.setStall(trace.StallRetire, retired == 0 && c.robN > 0 && c.robAt(0).completeAt < 0)
}

func (c *Core) resolveAndIssue(now sim.Ticks) {
	// Stop once every entry that was unissued on entry has been examined;
	// everything after the last of them is already issued.
	target := c.unissuedN
	for i, seen := 0, 0; i < c.robN && seen < target; i++ {
		e := c.robAt(i)
		if e.issued {
			continue
		}
		seen++
		if e.unresolved > 0 {
			e.unresolved = 0
			for _, d := range e.deps {
				if at, ok := c.depCompletion(d); ok {
					if at > e.readyAt {
						e.readyAt = at
					}
				} else {
					e.unresolved++
				}
			}
			if e.unresolved > 0 {
				continue
			}
		}
		c.issue(e, now)
	}
}

func (c *Core) issue(e *robEntry, now sim.Ticks) {
	c.unissuedN--
	start := e.readyAt
	if start < now {
		start = now
	}
	cyc := func(n int64) sim.Ticks { return c.cfg.Clock.Cycles(n) }
	switch e.kind {
	case OpInt, OpConfig, OpSWPf, OpStore, OpBranch:
		e.completeAt = start + cyc(1)
	case OpMul:
		e.completeAt = start + cyc(3)
	case OpDiv:
		e.completeAt = start + cyc(12)
	case OpLoad:
		e.issued = true
		e.completeAt = -1
		if start > now {
			c.eng.Schedule(start, c.launchH, uint64(e.id), 0)
		} else {
			c.ports.Load(e.addr, e.pc, c.loadDoneH, uint64(e.id))
		}
		return
	}
	e.issued = true
	c.recordCompletion(e.id, e.completeAt)
	if e.mispred {
		c.stallUntil = e.completeAt + c.cfg.Clock.Cycles(c.cfg.MispredictPenalty)
		c.redirectPending = false
	}
	if e.kind == OpStore && c.ports.Store != nil {
		c.eng.Schedule(e.completeAt, c.storeH, e.addr, uint64(int64(e.pc)))
	}
	if e.kind == OpSWPf && c.ports.SWPrefetch != nil {
		c.eng.Schedule(e.completeAt, c.swpfH, e.addr, 0)
	}
}

// launchLoad fires a delayed load issue: the op is still in the window, so
// its address and PC are read back from the mirror rings.
func (c *Core) launchLoad(id int64) {
	slot := id % completionRing
	c.ports.Load(c.ringAddr[slot], int(c.ringPC[slot]), c.loadDoneH, uint64(id))
}

func (c *Core) loadComplete(id int64, at sim.Ticks) {
	c.recordCompletion(id, at)
	// Window ids are consecutive, so the op's slot is a direct offset from
	// the head (out of range means it is no longer in the window).
	if c.robN > 0 {
		if i := id - c.robAt(0).id; i >= 0 && i < int64(c.robN) {
			c.robAt(int(i)).completeAt = at
		}
	}
	c.wake()
}

func (c *Core) dispatch(now sim.Ticks) {
	if c.stream == nil {
		return
	}
	if now < c.stallUntil || c.redirectPending {
		c.setStall(trace.StallRedirect, true)
		return
	}
	c.setStall(trace.StallRedirect, false)
	for n := 0; n < c.cfg.Width; n++ {
		if c.robN >= c.cfg.ROB {
			return
		}
		op, ok := c.nextOp()
		if !ok {
			c.stream = nil
			return
		}
		switch op.Kind {
		case OpLoad:
			if c.inflightLd >= c.cfg.LQ {
				// No LQ entry: hold the op until one frees at retirement.
				c.setStall(trace.StallLQ, true)
				c.pendingOp, c.hasPending = op, true
				return
			}
			c.inflightLd++
			c.setStall(trace.StallLQ, false)
		case OpStore:
			if c.inflightSt >= c.cfg.SQ {
				c.setStall(trace.StallSQ, true)
				c.pendingOp, c.hasPending = op, true
				return
			}
			c.inflightSt++
			c.setStall(trace.StallSQ, false)
		case OpConfig:
			if op.Do != nil {
				op.Do()
			}
		}
		id := c.nextID
		c.nextID++
		if c.OpBus != nil {
			var flags int32
			if op.Taken {
				flags = 1
			}
			c.OpBus.Emit(trace.Event{
				At: now, Kind: trace.CoreDispatch, Addr: op.Addr, ID: id,
				A: int32(op.Kind), B: int32(op.PC), C: flags,
				Dur: sim.Ticks(packDeps(id, op.Deps)),
			})
		}
		slot := id % completionRing
		c.known[slot] = false
		c.ringAddr[slot] = op.Addr
		c.ringPC[slot] = int32(op.PC)
		e := robEntry{
			id: id, kind: op.Kind, addr: op.Addr, pc: op.PC,
			deps: op.Deps, readyAt: now, completeAt: -1,
		}
		for _, d := range e.deps {
			if at, ok := c.depCompletion(d); ok {
				if at > e.readyAt {
					e.readyAt = at
				}
			} else {
				e.unresolved++
			}
		}
		c.robPush(e)
		if op.Kind == OpBranch {
			if c.bp.predictAndUpdate(op.PC, op.Taken) != op.Taken {
				c.Stats.Mispredicts++
				// Redirect: no further dispatch until the branch resolves
				// plus the front-end refill penalty. The stall is installed
				// when the branch issues (its resolve time is then known).
				c.robAt(c.robN - 1).mispred = true
				c.redirectPending = true
				return
			}
		}
	}
}

// nextOp pulls the next micro-op, honouring a previously rejected one.
func (c *Core) nextOp() (MicroOp, bool) {
	if c.hasPending {
		c.hasPending = false
		return c.pendingOp, true
	}
	return c.stream.Next()
}

func (c *Core) scheduleNext(now sim.Ticks) {
	// Prefer simply ticking next cycle while forward progress is plausible:
	// something retireable, issueable or dispatchable soon.
	next := now + c.cfg.Clock.Period

	if c.robN > 0 {
		head := c.robAt(0)
		if head.completeAt >= 0 {
			// Head has a known completion: tick then (or next cycle if past).
			if head.completeAt > next {
				next = head.completeAt
			}
			c.scheduleTick(next)
			return
		}
		// Head incomplete. If there are unissued ops that may become ready,
		// tick next cycle; if everything issued and waiting on memory, sleep
		// until a load callback wakes us. (Sleeping instead of keeping the
		// tick armed while unissued ops wait would NOT be timing-neutral: a
		// completion landing exactly on a clock edge behind an already-armed
		// tick takes effect a cycle later than a fresh wake would. So the
		// tick stays armed, and tick() makes the idle cycles cheap instead:
		// skipIdle jumps to the first edge at which anything could have
		// changed and charges the skipped ticks to the engine's sequence
		// counter. That jump is neutral where a sleep is not — the tick it
		// arms lands on the same edge with the same (at, seq) the dense
		// chain's tick would have had, so every event orders against it
		// exactly as before.)
		if c.unissuedN > 0 {
			c.scheduleTick(next)
			return
		}
		if c.stream != nil && c.robN < c.cfg.ROB && now >= c.stallUntil && !c.redirectPending {
			c.scheduleTick(next)
			return
		}
		if c.stallUntil > now {
			c.scheduleTick(c.stallUntil)
			return
		}
		return // idle: a load completion will wake us
	}
	// ROB empty but stream still has ops (we were stalled): tick again.
	if c.stream != nil {
		if c.stallUntil > next {
			next = c.stallUntil
		}
		c.scheduleTick(next)
	}
}

func (c *Core) finish(now sim.Ticks) {
	c.done = true
	c.Stats.FinishTick = now
	c.Stats.Cycles = int64(now / c.cfg.Clock.Period)
	if c.onDone != nil {
		c.onDone()
	}
}

// branchPredictor is a small gshare predictor: XOR of PC and global history
// indexing a table of 2-bit counters.
type branchPredictor struct {
	history uint32
	table   []uint8
}

const (
	bpBits    = 12
	bpEntries = 1 << bpBits
)

func (b *branchPredictor) init() {
	b.table = make([]uint8, bpEntries)
	for i := range b.table {
		b.table[i] = 1 // weakly not-taken
	}
}

func (b *branchPredictor) predictAndUpdate(pc int, taken bool) bool {
	idx := (uint32(pc) ^ b.history) & (bpEntries - 1)
	ctr := b.table[idx]
	pred := ctr >= 2
	if taken && ctr < 3 {
		b.table[idx] = ctr + 1
	}
	if !taken && ctr > 0 {
		b.table[idx] = ctr - 1
	}
	b.history = ((b.history << 1) | boolBit(taken)) & (bpEntries - 1)
	return pred
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Window reports the reorder-buffer occupancy, outstanding loads and the
// completion state of the window head (diagnostics).
func (c *Core) Window() (rob, loads int, headComplete bool, headKind OpKind) {
	if c.robN > 0 {
		head := c.robAt(0)
		headComplete = head.completeAt >= 0
		headKind = head.kind
	}
	return c.robN, c.inflightLd, headComplete, headKind
}
