package sim

import (
	"math/rand"
	"testing"
)

// The clock-slot tests check the one property the slot exists for: moving a
// recurring tick out of the heap, and letting it jump over idle cycles while
// charging them to the sequence counter, changes nothing any other event can
// observe. The reference below keeps every tick in one (at, seq)-ordered
// list, exactly as Schedule would have.

const (
	refPeriod  Ticks = 5
	refHorizon Ticks = 4000
)

// refEvent is one entry of the reference scheduler; tick marks the clocked
// component's events, id names a heap event.
type refEvent struct {
	at   Ticks
	seq  uint64
	tick bool
	id   uint64
}

// refEngine is the dense reference: a flat list popped by linear scan for
// the least (at, seq), with ticks scheduled like any other event.
type refEngine struct {
	now Ticks
	seq uint64
	ev  []refEvent
}

func (r *refEngine) push(at Ticks, tick bool, id uint64) {
	r.seq++
	r.ev = append(r.ev, refEvent{at: at, seq: r.seq, tick: tick, id: id})
}

func (r *refEngine) pop() (refEvent, bool) {
	if len(r.ev) == 0 {
		return refEvent{}, false
	}
	m := 0
	for i, e := range r.ev {
		if e.at < r.ev[m].at || (e.at == r.ev[m].at && e.seq < r.ev[m].seq) {
			m = i
		}
	}
	e := r.ev[m]
	r.ev = append(r.ev[:m], r.ev[m+1:]...)
	r.now = e.at
	return e, true
}

// nextHeapAt is the earliest non-tick event; tick() runs with its own event
// already popped, so at that point every pending event is a heap event.
func (r *refEngine) nextHeapAt() (Ticks, bool) {
	var at Ticks
	ok := false
	for _, e := range r.ev {
		if !e.tick && (!ok || e.at < at) {
			at, ok = e.at, true
		}
	}
	return at, ok
}

// stepRec is what one logged step leaves behind.
type stepRec struct {
	tick    bool
	id      uint64
	now     Ticks
	seq     uint64
	pending int
}

// world is the simulated system both engines drive. Heap events put the
// clocked component to sleep or wake it, set a stall deadline and schedule
// follow-ups; the component ticks every period and, while idle, either
// jumps to the first edge at which anything could change (engine under
// test) or keeps ticking densely (reference). Every random draw happens in
// a logged event, so both worlds draw the same sequence as long as they
// fire the same logged events in the same order.
type world struct {
	rng        *rand.Rand
	dense      bool
	eng        *Engine
	ref        *refEngine
	asleep     bool
	stallUntil Ticks
	skipUntil  Ticks // reference only: ticks before it are ones the engine jumps over
	nextID     uint64
	last       stepRec // the event the latest step fired
	t          *testing.T
}

func (w *world) now() Ticks {
	if w.dense {
		return w.ref.now
	}
	return w.eng.Now()
}

func (w *world) schedule(at Ticks) {
	w.nextID++
	if w.dense {
		w.ref.push(at, false, w.nextID)
	} else {
		w.eng.Schedule(at, worldEvent{w}, w.nextID, 0)
	}
}

func (w *world) arm(at Ticks, skipped uint64) {
	if w.dense {
		w.ref.push(at, true, 0)
	} else {
		w.eng.ArmClock(at, worldTick{w}, skipped)
	}
}

func (w *world) idle(now Ticks) bool { return w.asleep || now < w.stallUntil }

// fire runs heap event id.
func (w *world) fire(id uint64) {
	now := w.now()
	w.last = stepRec{id: id}
	switch w.rng.Intn(4) {
	case 0:
		w.asleep = false
	case 1:
		w.asleep = true
	case 2:
		w.stallUntil = now + Ticks(w.rng.Intn(60))
	}
	if now < refHorizon {
		for n := w.rng.Intn(3); n > 0; n-- {
			w.schedule(now + w.delay())
		}
	}
}

// delay favours spans that land on and beside clock edges.
func (w *world) delay() Ticks {
	if w.rng.Intn(2) == 0 {
		return refPeriod * Ticks(w.rng.Intn(12))
	}
	return Ticks(w.rng.Intn(70))
}

// tick runs the clocked component and reports whether the step is logged
// (false only for a reference tick the engine under test jumps over).
func (w *world) tick() bool {
	now := w.now()
	w.last = stepRec{tick: true}
	if now < w.skipUntil {
		if !w.idle(now) {
			w.t.Fatalf("t=%d: reference tick inside a skipped span is not idle", now)
		}
		w.arm(now+refPeriod, 0)
		return false
	}
	if now >= refHorizon {
		return true // the component stops
	}
	if w.idle(now) {
		limit, ok := w.nextHeapAt()
		for _, l := range []Ticks{w.stallUntil, refHorizon} {
			if l > now && (!ok || l < limit) {
				limit, ok = l, true
			}
		}
		next := now + refPeriod
		if edge := (Clock{Period: refPeriod}).NextEdge(limit); ok && edge > next {
			next = edge
		}
		if w.dense {
			w.skipUntil = next
			w.arm(now+refPeriod, 0)
		} else {
			w.arm(next, uint64((next-now)/refPeriod-1))
		}
		return true
	}
	switch w.rng.Intn(6) {
	case 0:
		w.schedule(now + w.delay())
	case 1:
		w.stallUntil = now + 1 + Ticks(w.rng.Intn(50))
	case 2:
		w.asleep = true
	}
	w.arm(now+refPeriod, 0)
	return true
}

func (w *world) nextHeapAt() (Ticks, bool) {
	if w.dense {
		return w.ref.nextHeapAt()
	}
	return w.eng.NextEventAt()
}

type worldEvent struct{ w *world }

func (h worldEvent) Handle(_ Ticks, id, _ uint64) { h.w.fire(id) }

type worldTick struct{ w *world }

func (h worldTick) Handle(Ticks, uint64, uint64) { h.w.tick() }

// runWorld drives one world to completion and returns its step log. For the
// reference, a skipped tick's effect on seq and pending is folded into the
// preceding logged step, which is where the engine under test charges it.
func runWorld(t *testing.T, seed int64, dense bool) []stepRec {
	w := &world{rng: rand.New(rand.NewSource(seed)), dense: dense, t: t}
	var log []stepRec
	if dense {
		w.ref = &refEngine{}
		for i := 0; i < 8; i++ {
			w.schedule(w.delay())
		}
		w.arm(0, 0)
		for {
			ev, ok := w.ref.pop()
			if !ok {
				return log
			}
			logged := true
			if ev.tick {
				logged = w.tick()
			} else {
				w.fire(ev.id)
			}
			rec := w.last
			rec.now, rec.seq, rec.pending = w.ref.now, w.ref.seq, len(w.ref.ev)
			if logged {
				log = append(log, rec)
			} else {
				last := &log[len(log)-1]
				last.seq, last.pending = rec.seq, rec.pending
			}
		}
	}
	w.eng = NewEngine()
	for i := 0; i < 8; i++ {
		w.schedule(w.delay())
	}
	w.arm(0, 0)
	for w.eng.Step() {
		rec := w.last
		rec.now, rec.seq, rec.pending = w.eng.Now(), w.eng.Seq(), w.eng.Pending()
		log = append(log, rec)
	}
	return log
}

// TestClockSlotMatchesDenseReference is the differential test: for many
// seeds, the engine with the clock slot and idle skipping must fire the
// same events in the same order at the same times, with the same Seq and
// Pending after every step, as the reference that keeps every tick.
func TestClockSlotMatchesDenseReference(t *testing.T) {
	skipped := 0
	for seed := int64(1); seed <= 60; seed++ {
		got := runWorld(t, seed, false)
		want := runWorld(t, seed, true)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d step %d: engine %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine ran %d logged steps, reference %d", seed, len(got), len(want))
		}
		if len(got) > 0 && got[len(got)-1].seq > uint64(len(got)) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("no seed exercised an idle skip")
	}
}

// recH is a comparable handler that records its firings.
type recH struct {
	name string
	log  *[]string
}

func (h recH) Handle(Ticks, uint64, uint64) { *h.log = append(*h.log, h.name) }

func TestCopyFromArmedClock(t *testing.T) {
	var srcLog, dstLog []string
	src := NewEngine()
	src.Schedule(20, recH{"h20", &srcLog}, 0, 0)
	src.ArmClock(20, recH{"clock", &srcLog}, 3)
	src.Schedule(20, recH{"h20late", &srcLog}, 0, 0)
	src.Schedule(10, recH{"h10", &srcLog}, 0, 0)

	remap := NewRemap()
	for _, n := range []string{"h10", "h20", "h20late", "clock"} {
		remap.Register(recH{n, &srcLog}, recH{n, &dstLog})
	}
	dst := NewEngine()
	if err := dst.CopyFrom(src, remap); err != nil {
		t.Fatal(err)
	}
	if dst.Seq() != src.Seq() || dst.Pending() != src.Pending() || dst.Pending() != 4 {
		t.Fatalf("copy: seq %d pending %d, source seq %d pending %d (want 4 pending)",
			dst.Seq(), dst.Pending(), src.Seq(), src.Pending())
	}
	src.Run()
	dst.Run()
	want := []string{"h10", "h20", "clock", "h20late"}
	for i, l := range [][]string{srcLog, dstLog} {
		if len(l) != len(want) {
			t.Fatalf("engine %d fired %v, want %v", i, l, want)
		}
		for j := range want {
			if l[j] != want[j] {
				t.Fatalf("engine %d fired %v, want %v", i, l, want)
			}
		}
	}

	// An armed slot whose handler has no registered counterpart must fail
	// the copy rather than leave the fork ticking parent state.
	src.ArmClock(50, recH{"stray", &srcLog}, 0)
	if err := NewEngine().CopyFrom(src, remap); err == nil {
		t.Error("CopyFrom with an unregistered clock handler succeeded")
	}
}

func TestRunUntilStopsAtClock(t *testing.T) {
	var log []string
	e := NewEngine()
	e.Schedule(10, recH{"h10", &log}, 0, 0)
	e.ArmClock(20, recH{"clock", &log}, 0)
	e.Schedule(25, recH{"h25", &log}, 0, 0)

	e.RunUntil(19)
	if len(log) != 1 || e.Now() != 19 || e.Pending() != 2 {
		t.Fatalf("RunUntil(19): fired %v, now %d, pending %d; want [h10], 19, 2", log, e.Now(), e.Pending())
	}
	e.RunUntil(20)
	if len(log) != 2 || log[1] != "clock" || e.Now() != 20 || e.Pending() != 1 {
		t.Fatalf("RunUntil(20): fired %v, now %d, pending %d; want [h10 clock], 20, 1", log, e.Now(), e.Pending())
	}
	if at, ok := e.NextEventAt(); !ok || at != 25 {
		t.Errorf("NextEventAt = %d, %v; want 25, true", at, ok)
	}
}

func TestArmClockPanics(t *testing.T) {
	for name, arm := range map[string]func(e *Engine){
		"double arm": func(e *Engine) {
			e.ArmClock(10, recH{}, 0)
			e.ArmClock(15, recH{}, 0)
		},
		"past": func(e *Engine) {
			e.RunUntil(10)
			e.ArmClock(5, recH{}, 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ArmClock did not panic", name)
				}
			}()
			arm(NewEngine())
		}()
	}
}
