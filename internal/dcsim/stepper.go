package dcsim

import (
	"fmt"

	"repro/internal/alloc"
)

// Stepper advances a simulation one slot at a time over the same
// run-scoped state a batch Run uses: the DVFS-level lookup tables,
// the packed prediction windows and the reusable scratch buffers are
// built once at construction and shared by every Step, so stepping a
// window to completion is the batch run — not a re-derivation of it.
// Run itself is implemented as a Stepper driven to exhaustion, which
// is what makes "incremental equals batch" true by construction
// rather than by test.
//
// This is the incremental primitive the live fleet service
// (internal/serve) ticks: a daemon that replays a trace slot by slot
// holds one Stepper per datacenter and calls Step on every tick,
// paying the per-run table construction once instead of once per
// slot. The StartSlot/NumSlots/InitialActiveServers window knobs in
// Config apply unchanged — a Stepper over a window steps exactly that
// window.
//
// A Stepper is not safe for concurrent use; callers serialise Step
// (the service steps under its own lock).
type Stepper struct {
	cfg  Config
	st   *runState
	next int
}

// NewStepper validates cfg's shape and builds the run state (lookup
// tables, scratch buffers) without simulating any slot.
//
// It does not scan the trace's samples: the caller that brings the
// trace into the simulation checks them once (Run, and
// topology.NewStepper for every epoch and fork it builds), and a
// stepper built per epoch must not rescan history it never reads.
// That trust holds because nothing writes a trace once a stepper is
// built over it except LiveFeed.Observe, which range-checks every
// sample it writes.
func NewStepper(cfg Config) (*Stepper, error) {
	s := &Stepper{cfg: cfg}
	st, err := newRunState(&s.cfg)
	if err != nil {
		return nil, err
	}
	s.st = st
	s.next = st.first
	return s, nil
}

// Slots returns how many slots the stepper's window spans in total.
func (s *Stepper) Slots() int { return s.st.last - s.st.first }

// Done reports whether every slot of the window has been stepped.
func (s *Stepper) Done() bool { return s.next >= s.st.last }

// Step simulates the next slot of the window and returns its result.
// Stepping past the window is an error, as is any simulation failure
// (the stepper is then poisoned — a slot cannot be retried, because
// the slot loop's carried state has already advanced). The one
// retryable refusal is a gated slot: with a Config.Source that has
// not released the next slot, Step returns an error wrapping
// ErrAwaitingSamples and advances nothing.
func (s *Stepper) Step() (SlotResult, error) {
	if s.Done() {
		return SlotResult{}, fmt.Errorf("dcsim: stepper exhausted: all %d slots of window [%d, %d) stepped",
			s.Slots(), s.st.first, s.st.last)
	}
	if src := s.cfg.Source; src != nil && !src.SlotReady(s.next) {
		return SlotResult{}, fmt.Errorf("dcsim: slot %d: %w", s.next, ErrAwaitingSamples)
	}
	if err := s.st.step(s.next); err != nil {
		return SlotResult{}, err
	}
	s.next++
	return s.st.slots[len(s.st.slots)-1], nil
}

// Clone returns an independent stepper carrying this one's state: the
// clone resumes at the same next slot with the same accumulated
// results and transition continuity (prevAsg, shared read-only), and
// stepping it never affects the original. pol, when non-nil, replaces
// the allocation policy — callers that step original and clone
// concurrently must pass a fresh instance, since policies are not
// required to allocate concurrently. The registered policies derive
// each slot's allocation from that slot's demand alone, so a fresh
// instance continues bit-exactly (the window-concatenation property
// the stepper tests pin).
//
// Immutable run state (DVFS-level tables, the trace and prediction
// rows) is shared; mutable state (slot results, scratch buffers) is
// copied or rebuilt.
func (s *Stepper) Clone(pol alloc.Policy) *Stepper {
	c := &Stepper{cfg: s.cfg, next: s.next}
	if pol != nil {
		c.cfg.Policy = pol
	}
	c.st = s.st.clone(&c.cfg)
	return c
}

// Finish aggregates the slots stepped so far into a Result. After
// stepping the whole window it returns exactly what Run would have;
// called early it aggregates the prefix (the live service's
// "series so far" view).
func (s *Stepper) Finish() *Result { return s.st.finish() }
