package sim

import (
	"fmt"
	"reflect"
)

// Remap translates the event handlers owned by one machine into their
// counterparts on a fork of that machine. Forking rebuilds every component
// (and therefore every handler adapter) from scratch, so events captured in
// the parent's queue point at parent-owned state; before the copied queue can
// run on the fork, each stored Handler must be swapped for the fork's
// equivalent. Components register their (parent, fork) handler pairs here
// while the fork is being assembled.
//
// Handlers are typically small adapter structs carrying one pointer back to
// their component, scheduled by value — two copies of the same adapter
// compare equal, so plain map lookup finds the registered pair regardless of
// which copy the event captured.
type Remap struct {
	m map[Handler]Handler
}

// NewRemap returns an empty handler translation table.
func NewRemap() *Remap { return &Remap{m: make(map[Handler]Handler)} }

// Register records that dst (fork-owned) is the counterpart of src
// (parent-owned). Registering nil handlers panics: it would mask a
// half-initialised component.
func (r *Remap) Register(src, dst Handler) {
	if src == nil || dst == nil {
		panic("sim: Remap.Register with nil handler")
	}
	r.m[src] = dst
}

// Lookup translates a parent-owned handler into the fork's counterpart. nil
// maps to nil. A handler whose dynamic type is not comparable (a func-typed
// Handler wrapping a closure) cannot be translated — such events are inherently
// bound to parent state, so forking a machine with one pending is an error
// rather than a silent corruption. An unregistered comparable handler is an
// error too: it means a component forgot to register its pairs.
func (r *Remap) Lookup(h Handler) (Handler, error) {
	if h == nil {
		return nil, nil
	}
	if !reflect.TypeOf(h).Comparable() {
		return nil, fmt.Errorf("sim: cannot fork a pending closure event (%T); only typed handlers survive a fork", h)
	}
	d, ok := r.m[h]
	if !ok {
		return nil, fmt.Errorf("sim: no fork counterpart registered for handler %T", h)
	}
	return d, nil
}

// Seq exposes the schedule sequence counter (total events ever scheduled).
// Forks copy it so tie-breaking of same-tick events stays byte-identical,
// and checkpoints fold it into their state digest.
func (e *Engine) Seq() uint64 { return e.seq }

// CopyFrom makes e an exact copy of src's scheduling state — current time,
// schedule sequence counter, the pending event queue and the clock slot —
// with every stored handler translated through remap. The queue's backing
// array is copied in heap order, so the fork pops events in byte-identically
// the same order the parent would have. Payload words are copied verbatim:
// they name slots and indices in component state the caller is responsible
// for copying in parallel.
func (e *Engine) CopyFrom(src *Engine, remap *Remap) error {
	e.now = src.now
	e.seq = src.seq
	e.queue.ev = append(e.queue.ev[:0], src.queue.ev...)
	for i := range e.queue.ev {
		h, err := remap.Lookup(e.queue.ev[i].h)
		if err != nil {
			return fmt.Errorf("event at t=%d: %w", e.queue.ev[i].at, err)
		}
		e.queue.ev[i].h = h
	}
	e.clock = src.clock
	h, err := remap.Lookup(e.clock.h)
	if err != nil {
		return fmt.Errorf("clock event at t=%d: %w", e.clock.at, err)
	}
	e.clock.h = h
	return nil
}
