package faults

import (
	"testing"
	"time"
)

// breakerDriver runs one wrapper's state machine through its lock-and-
// delegate layer, with a hand-stepped clock in units of the cooldown.
type breakerDriver interface {
	allow() (pass, probe bool)
	record(ok, probe bool)
	release(probe bool)
	state() State
	trips() int
	wait(cooldowns float64)
}

// datasetDriver drives one dataset of a Breaker on model hours.
type datasetDriver struct {
	b *Breaker
	t float64
}

const driverCooldownHours = 5.0

func (d *datasetDriver) allow() (bool, bool)    { return d.b.begin("lat", d.t) }
func (d *datasetDriver) record(ok, probe bool)  { d.b.record("lat", d.t, ok, probe) }
func (d *datasetDriver) state() State           { s, _ := d.b.stateAt("lat", d.t); return s }
func (d *datasetDriver) trips() int             { return d.b.Trips("lat") }
func (d *datasetDriver) wait(cooldowns float64) { d.t += cooldowns * driverCooldownHours }

// release: a Breaker never abandons an observed query (every begin is
// followed by record), so it has no release of its own; the driver
// reaches the dataset's machine under the Breaker's lock.
func (d *datasetDriver) release(probe bool) {
	d.b.mu.Lock()
	defer d.b.mu.Unlock()
	d.b.gateOf("lat").release(probe)
}

// requestDriver drives a ReqBreaker on a fake wall clock.
type requestDriver struct {
	b   *ReqBreaker
	clk *fakeClock
}

const driverCooldown = 10 * time.Second

func (d *requestDriver) allow() (bool, bool)   { return d.b.Allow() }
func (d *requestDriver) record(ok, probe bool) { d.b.Record(ok, probe) }
func (d *requestDriver) release(probe bool)    { d.b.Release(probe) }
func (d *requestDriver) state() State          { return d.b.State() }
func (d *requestDriver) trips() int            { return d.b.Trips() }
func (d *requestDriver) wait(cooldowns float64) {
	d.clk.advance(time.Duration(cooldowns * float64(driverCooldown)))
}

// TestMachineTransitions runs the same transition scenarios through
// both wrappers of the shared state machine, so Breaker and ReqBreaker
// cannot drift apart: trip, probe close, probe re-open, the single
// probe slot, and release.
func TestMachineTransitions(t *testing.T) {
	wrappers := []struct {
		name string
		mk   func() breakerDriver
	}{
		{"Breaker", func() breakerDriver {
			return &datasetDriver{b: NewBreaker(&fakeSource{}, BreakerParams{Trip: 2, Cooldown: driverCooldownHours}), t: 10}
		}},
		{"ReqBreaker", func() breakerDriver {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			return &requestDriver{b: NewReqBreaker(ReqBreakerParams{Trip: 2, Cooldown: driverCooldown}, clk.now), clk: clk}
		}},
	}
	expect := func(t *testing.T, d breakerDriver, state State, trips int) {
		t.Helper()
		if got := d.state(); got != state {
			t.Fatalf("state = %s, want %s", got, state)
		}
		if got := d.trips(); got != trips {
			t.Fatalf("trips = %d, want %d", got, trips)
		}
	}
	allow := func(t *testing.T, d breakerDriver, pass, probe bool) bool {
		t.Helper()
		p, pr := d.allow()
		if p != pass || pr != probe {
			t.Fatalf("allow = (%v, %v), want (%v, %v)", p, pr, pass, probe)
		}
		return pr
	}
	trip := func(t *testing.T, d breakerDriver) {
		t.Helper()
		for i := 0; i < 2; i++ {
			d.record(false, allow(t, d, true, false))
		}
		expect(t, d, StateOpen, 1)
	}
	scenarios := []struct {
		name string
		run  func(t *testing.T, d breakerDriver)
	}{
		{"trip", func(t *testing.T, d breakerDriver) {
			d.record(false, allow(t, d, true, false))
			expect(t, d, StateClosed, 0)
			d.record(true, allow(t, d, true, false)) // a success resets the streak
			d.record(false, allow(t, d, true, false))
			expect(t, d, StateClosed, 0)
			d.record(false, allow(t, d, true, false))
			expect(t, d, StateOpen, 1)
			allow(t, d, false, false)
			d.wait(0.9)
			allow(t, d, false, false)
			expect(t, d, StateOpen, 1)
		}},
		{"probe closes", func(t *testing.T, d breakerDriver) {
			trip(t, d)
			d.wait(1)
			expect(t, d, StateHalfOpen, 1)
			d.record(true, allow(t, d, true, true))
			expect(t, d, StateClosed, 1)
			allow(t, d, true, false)
		}},
		{"probe re-opens", func(t *testing.T, d breakerDriver) {
			trip(t, d)
			d.wait(1.5)
			d.record(false, allow(t, d, true, true))
			expect(t, d, StateOpen, 2)
			d.wait(0.5) // the re-open restarted the cooldown
			allow(t, d, false, false)
			d.wait(0.5)
			allow(t, d, true, true)
		}},
		{"single probe slot", func(t *testing.T, d breakerDriver) {
			trip(t, d)
			d.wait(1.5)
			probe := allow(t, d, true, true)
			allow(t, d, false, false)
			allow(t, d, false, false)
			expect(t, d, StateHalfOpen, 1)
			d.record(true, probe)
			expect(t, d, StateClosed, 1)
			allow(t, d, true, false)
		}},
		{"release", func(t *testing.T, d breakerDriver) {
			// A released plain call moves neither the streak nor the state.
			d.record(false, allow(t, d, true, false))
			d.release(allow(t, d, true, false))
			expect(t, d, StateClosed, 0)
			d.record(false, allow(t, d, true, false))
			expect(t, d, StateOpen, 1)
			// A released probe frees the slot and leaves the breaker
			// half-open for the next probe.
			d.wait(1.5)
			d.release(allow(t, d, true, true))
			expect(t, d, StateHalfOpen, 1)
			d.record(true, allow(t, d, true, true))
			expect(t, d, StateClosed, 1)
		}},
	}
	for _, w := range wrappers {
		for _, sc := range scenarios {
			t.Run(w.name+"/"+sc.name, func(t *testing.T) { sc.run(t, w.mk()) })
		}
	}
}

// TestMachineReopenKeepsProbeSlot pins the re-open rule the machine's
// doc argues for: when another outcome re-opens a breaker while a probe
// is in flight, a passive read that moves it half-open again must not
// let a second probe start beside the first.
func TestMachineReopenKeepsProbeSlot(t *testing.T) {
	m := newMachine(2, 5.0)
	m.record(0, false, false)
	m.record(0, false, false)
	if pass, probe := m.allow(5); !pass || !probe {
		t.Fatal("past the cooldown the first call should probe")
	}
	m.record(5, false, false) // an older plain call fails while half-open
	if s := m.stateAt(5); s != StateOpen {
		t.Fatalf("state = %s, want open", s)
	}
	if !m.allowPassive(10) {
		t.Fatal("passive read past the cooldown should pass")
	}
	if pass, _ := m.allow(10); pass {
		t.Fatal("a second probe started while the first is in flight")
	}
	m.record(10, true, true)
	if s := m.stateAt(10); s != StateClosed {
		t.Fatalf("state = %s, want closed after the probe succeeded", s)
	}
}
