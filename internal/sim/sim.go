// Package sim provides the discrete-event simulation engine shared by every
// timed component in the system: the main core, the cache hierarchy, DRAM,
// and the programmable prefetcher.
//
// Time is kept as an integer number of ticks. One tick is 62.5 ps, chosen so
// that every clock frequency used in the paper's evaluation divides evenly:
// the 3.2 GHz main core has a 5-tick period, the 1 GHz PPUs 16 ticks, the
// 800 MHz DDR3 bus 20 ticks, and the PPU sweep frequencies from 125 MHz
// (128 ticks) to 4 GHz (4 ticks) are all exact.
package sim

// Ticks is a point in (or span of) simulated time. One tick is 62.5 ps.
type Ticks = int64

// TicksPerNs is the number of ticks in one nanosecond.
const TicksPerNs = 16

// Clock describes a clock domain by its period in ticks.
type Clock struct {
	// Period is the length of one cycle in ticks. It must be positive.
	Period Ticks
}

// ClockFromMHz builds a Clock for the given frequency in MHz. The frequency
// must divide 16 GHz so that the period is a whole number of ticks; every
// frequency in the paper does.
func ClockFromMHz(mhz int) Clock {
	const tickRateMHz = 16000 // 16 ticks/ns = 16 GHz tick rate
	if mhz <= 0 || tickRateMHz%mhz != 0 {
		panic("sim: frequency must be a positive divisor of 16 GHz")
	}
	return Clock{Period: Ticks(tickRateMHz / mhz)}
}

// Cycles converts a cycle count in this domain to ticks.
func (c Clock) Cycles(n int64) Ticks { return n * c.Period }

// ToCycles converts a tick span to whole cycles in this domain, rounding up.
func (c Clock) ToCycles(t Ticks) int64 { return (t + c.Period - 1) / c.Period }

// NextEdge returns the first clock edge at or after time t.
func (c Clock) NextEdge(t Ticks) Ticks {
	r := t % c.Period
	if r == 0 {
		return t
	}
	return t + c.Period - r
}

// Handler is the closure-free event target: the steady-state scheduling path
// carries a Handler plus two payload words instead of a heap-allocated
// closure. Implementations are typically two-word adapter structs embedded by
// value in a component, so taking their address converts to Handler without
// allocating, and the payload words name a pool slot, a queue entry, an
// address, or an id — whatever the handler needs to find its state.
//
// The same interface doubles as the memory system's completion callback type
// (mem.Request routes completions through it), so one mechanism covers both
// "run this later" and "tell me when this finishes".
type Handler interface {
	// Handle runs the event. at is the firing time (the engine's Now for
	// scheduled events, the completion time for request completions); a and b
	// carry payload whose meaning the handler defines.
	Handle(at Ticks, a, b uint64)
}

type event struct {
	at   Ticks
	seq  uint64 // tie-break so simultaneous events run in schedule order
	a, b uint64 // handler payload
	h    Handler
}

// before is the heap ordering: earliest time first, schedule order within a
// tick. (at, seq) is a total order, so the pop sequence is unique and any
// correct heap yields bit-identical simulations.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a concrete binary min-heap over a reusable backing slice.
// It deliberately avoids container/heap: the interface{} boxing there costs
// one allocation per Push and per Pop, which dominates the scheduler on the
// simulator's hot path. Here Push appends into retained capacity and Pop
// shrinks the length, so steady-state operation allocates nothing.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.ev[i].before(q.ev[p]) {
			break
		}
		q.ev[i], q.ev[p] = q.ev[p], q.ev[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // release the handler so finished events can be GC'd
	q.ev = q.ev[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && q.ev[r].before(q.ev[l]) {
			c = r
		}
		if !q.ev[c].before(q.ev[i]) {
			break
		}
		q.ev[i], q.ev[c] = q.ev[c], q.ev[i]
		i = c
	}
	return top
}

// Engine is a single-threaded discrete-event scheduler. Events scheduled for
// the same tick run in the order they were scheduled, which keeps runs
// deterministic. An Engine (and the Machine built around it) is confined to
// one goroutine; the harness runs many engines in parallel, never one engine
// from two goroutines.
//
// Beside the heap the engine holds one clock slot: a single pending event
// for the component that ticks every cycle (the core). The slot carries its
// own (at, seq) and Step fires it whenever it precedes the heap minimum in
// the same (at, seq) order, so moving a recurring tick from the heap into
// the slot changes no pop order — it only spares the tick its sift-up and
// sift-down.
type Engine struct {
	now   Ticks
	seq   uint64
	queue eventQueue
	clock event // the clock slot; clock.h == nil while unarmed
}

// NewEngine returns an engine with the clock at tick zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Ticks { return e.now }

// Schedule arranges for h.Handle(t, a, b) to run at time t. This is the
// allocation-free path: the event carries the handler and payload words
// directly, so steady-state scheduling touches no heap. Scheduling in the
// past panics: it would silently corrupt causality.
func (e *Engine) Schedule(t Ticks, h Handler, a, b uint64) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.queue.push(event{at: t, seq: e.seq, a: a, b: b, h: h})
}

// ScheduleAfter is Schedule at d ticks from now.
func (e *Engine) ScheduleAfter(d Ticks, h Handler, a, b uint64) {
	e.Schedule(e.now+d, h, a, b)
}

// ArmClock places h.Handle(t, 0, 0) in the clock slot. The event takes the
// sequence number Schedule would have given it after skipped earlier events
// had been scheduled: the counter advances by skipped+1. A clocked component
// that jumps over k−1 provably idle cycles passes skipped = k−1, so every
// later tie-break, Seq and Pending read exactly as if each idle cycle had
// been scheduled and run. Arming an armed slot or arming in the past panics.
func (e *Engine) ArmClock(t Ticks, h Handler, skipped uint64) {
	if e.clock.h != nil {
		panic("sim: clock slot armed twice")
	}
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq += skipped + 1
	e.clock = event{at: t, seq: e.seq, h: h}
}

// NextEventAt returns the time of the earliest event in the heap, ignoring
// the clock slot; ok is false when the heap is empty.
func (e *Engine) NextEventAt() (at Ticks, ok bool) {
	if e.queue.len() == 0 {
		return 0, false
	}
	return e.queue.ev[0].at, true
}

// Pending reports how many events are waiting to run, the clock slot
// included.
func (e *Engine) Pending() int {
	if e.clock.h != nil {
		return e.queue.len() + 1
	}
	return e.queue.len()
}

// clockFirst reports whether the armed clock slot precedes every heap event.
func (e *Engine) clockFirst() bool {
	return e.clock.h != nil && (e.queue.len() == 0 || e.clock.before(e.queue.ev[0]))
}

// Step runs the next event, returning false if none is pending.
func (e *Engine) Step() bool {
	var ev event
	switch {
	case e.clockFirst():
		ev = e.clock
		e.clock = event{}
	case e.queue.len() > 0:
		ev = e.queue.pop()
	default:
		return false
	}
	e.now = ev.at
	ev.h.Handle(ev.at, ev.a, ev.b)
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (e *Engine) RunUntil(t Ticks) {
	for at, ok := e.nextAt(); ok && at <= t; at, ok = e.nextAt() {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// nextAt returns the time of the event Step would run next, clock slot
// included; ok is false when nothing is pending.
func (e *Engine) nextAt() (Ticks, bool) {
	if e.clockFirst() {
		return e.clock.at, true
	}
	return e.NextEventAt()
}
