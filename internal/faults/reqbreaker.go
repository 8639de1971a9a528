package faults

import (
	"sync"
	"time"
)

// ReqBreakerParams tune a request-level circuit breaker (the wall-clock
// sibling of BreakerParams, which runs on model hours).
type ReqBreakerParams struct {
	// Trip is how many consecutive failed requests open the breaker.
	// Default 5.
	Trip int
	// Cooldown is how long an open breaker short-circuits before allowing
	// a probe request. Default 2s.
	Cooldown time.Duration
}

func (p ReqBreakerParams) withDefaults() ReqBreakerParams {
	if p.Trip <= 0 {
		p.Trip = 5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 2 * time.Second
	}
	return p
}

// ReqBreaker is the three-state circuit breaker for request/response
// traffic: the gateway keeps one per replica, so a replica that fails
// Trip requests in a row stops receiving traffic until a cooldown
// elapses and a single probe request proves it recovered. It runs the
// same state machine as the per-dataset Breaker; the difference is the
// time base — a replica breaker cools down in wall-clock time, read
// through an injected clock as the time.Duration elapsed since
// construction, so tests and deterministic replays never touch time.Now
// themselves.
type ReqBreaker struct {
	now   func() time.Time
	start time.Time

	mu sync.Mutex
	m  *machine[time.Duration]
}

// NewReqBreaker builds a closed breaker reading time through now (which
// must be non-nil; binaries pass time.Now, tests a fake).
func NewReqBreaker(p ReqBreakerParams, now func() time.Time) *ReqBreaker {
	p = p.withDefaults()
	return &ReqBreaker{now: now, start: now(), m: newMachine(p.Trip, p.Cooldown)}
}

// elapsed is the breaker's clock reading: time since construction.
func (b *ReqBreaker) elapsed() time.Duration { return b.now().Sub(b.start) }

// Allow reports whether a request may be sent. probe marks the request
// as the half-open trial; the caller must feed its outcome back through
// Record(ok, probe) — the probe slot is single occupancy and Record is
// what releases it, so a dropped outcome would wedge the breaker
// half-open.
func (b *ReqBreaker) Allow() (pass, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m.allow(b.elapsed())
}

// Record feeds one allowed request's outcome into the state machine,
// releasing the probe slot when the request held it. A successful probe
// closes the breaker; a failed probe (or any failure while half-open)
// re-opens it immediately; Trip consecutive closed-state failures open
// it.
func (b *ReqBreaker) Record(ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.record(b.elapsed(), ok, probe)
}

// Release abandons an allowed request without recording an outcome:
// the probe slot (if held) is freed, but neither the failure streak nor
// the state machine moves. Hedged requests use it for the loser — a
// request cancelled because its sibling won says nothing about the
// replica's health, and feeding the cancellation in as a failure would
// let hedging itself trip breakers.
func (b *ReqBreaker) Release(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.release(probe)
}

// State reads the effective state: an open breaker past its cooldown
// reports half-open, matching what the next Allow would decide.
func (b *ReqBreaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m.stateAt(b.elapsed())
}

// Trips returns how many times the breaker has opened.
func (b *ReqBreaker) Trips() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m.trips
}
