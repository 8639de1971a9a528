package faults

import "time"

// State is a circuit breaker's position.
type State string

// The classic three breaker states.
const (
	// StateClosed: traffic flows; Trip consecutive failures open the
	// breaker and any success resets the streak.
	StateClosed State = "closed"
	// StateOpen: traffic short-circuits (a dataset answers empty windows,
	// which featurization imputes over) until the cooldown elapses.
	StateOpen State = "open"
	// StateHalfOpen: the cooldown elapsed; one probe at a time may pass.
	// A success closes the breaker, a failure re-opens it and restarts
	// the cooldown.
	StateHalfOpen State = "half-open"
)

// instant is a breaker's time base: model hours for Breaker, the
// time.Duration since construction for ReqBreaker (exact where float
// seconds would round).
type instant interface {
	~float64 | time.Duration
}

// machine is the one three-state breaker behind Breaker and ReqBreaker.
// It neither locks nor reads a clock: each wrapper calls it under its
// own mutex with the current time.
//
// probing is the single half-open probe slot: while a probe is in
// flight every other observed call short-circuits, since two racing
// probes would double-count a failure or let a burst through a target
// that is still down. Re-opening leaves the slot as it is. For Breaker
// this matters: its passive reads (allowPassive) move Open→HalfOpen
// without taking the slot, so if another outcome re-opens the breaker
// while a probe is in flight, the kept slot stops allow from starting a
// second probe beside it. The slot frees when that probe's record or
// release lands. ReqBreaker has no passive path and every Open→HalfOpen
// move in allow takes the slot anyway, so for it the rule cannot be
// observed.
type machine[T instant] struct {
	trip     int
	cooldown T

	state    State
	fails    int
	openedAt T
	trips    int
	probing  bool
}

func newMachine[T instant](trip int, cooldown T) *machine[T] {
	return &machine[T]{trip: trip, cooldown: cooldown, state: StateClosed}
}

// allow decides whether an observed call at time t may pass. probe marks
// the half-open trial, which holds the slot until its record or release.
func (m *machine[T]) allow(t T) (pass, probe bool) {
	switch m.state {
	case StateOpen:
		if t-m.openedAt < m.cooldown {
			return false, false
		}
		m.state = StateHalfOpen
	case StateHalfOpen:
		if m.probing {
			return false, false
		}
	default:
		return true, false
	}
	m.probing = true
	return true, true
}

// allowPassive decides whether an unobserved call (no record follows)
// may pass. It never takes the probe slot: the target is being tested,
// not trusted, and an extra read risks nothing the probe does not.
func (m *machine[T]) allowPassive(t T) bool {
	if m.state == StateOpen {
		if t-m.openedAt < m.cooldown {
			return false
		}
		m.state = StateHalfOpen
	}
	return true
}

// record feeds an allowed call's outcome at time t into the machine,
// freeing the probe slot when the call held it.
func (m *machine[T]) record(t T, ok, probe bool) {
	m.release(probe)
	if ok {
		m.fails = 0
		m.state = StateClosed
		return
	}
	if !probe && m.state != StateHalfOpen {
		m.fails++
		if m.fails < m.trip {
			return
		}
	}
	m.state = StateOpen
	m.openedAt = t
	m.trips++
	m.fails = 0
}

// release abandons an allowed call without an outcome: the probe slot
// (if held) frees, the streak and the state do not move.
func (m *machine[T]) release(probe bool) {
	if probe {
		m.probing = false
	}
}

// stateAt reads the effective state at time t without moving the
// machine: open past its cooldown reads half-open, as the next allow
// would decide.
func (m *machine[T]) stateAt(t T) State {
	if m.state == StateOpen && t-m.openedAt >= m.cooldown {
		return StateHalfOpen
	}
	return m.state
}
