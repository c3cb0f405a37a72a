package lrpc

// This file is the overload-control and supervised-recovery subsystem:
// the graceful-degradation machinery a production serving stack layers
// over the paper's §3/§5.3 termination semantics. Four pieces:
//
//   - admission control: a per-export concurrency cap with a
//     deadline-aware, priority-ordered wait queue. A call that cannot be
//     admitted before its deadline is shed immediately with ErrOverload
//     instead of parking past its budget, and low-priority traffic sheds
//     first under pressure (the load-shedding policy rides on
//     CallOpts.Priority);
//   - a circuit breaker for the network plane (see net.go for the
//     NetClient wiring): closed → open on consecutive redial/send
//     failures, half-open after a capped cooldown with a single probe
//     call, so callers fail fast instead of queueing behind a dead peer;
//   - a supervisor that owns a binding, health-probes it, and
//     transparently re-imports after ErrRevoked — the paper's "bindings
//     are revoked on domain termination" made survivable by automatic
//     client recovery (supervise.go);
//   - an orphan-activation reaper accounting for abandoned activations
//     (deadline-abandoned calls whose handlers are still running, possibly
//     inside terminated exports) until they actually return.
//
// The design rule is the package's usual one: every hook is an
// atomic.Pointer consulted with a single nil-checked load, so the
// disabled subsystem costs the fast path nothing — Binding.Call stays
// 0 locks / 0 allocs (asserted in concurrency_test.go, gated by
// cmd/benchcheck). All events (shed, breaker-open/close, rebind, reap)
// flow through the Tracer hook of metrics.go.

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Errors of the resilience subsystem.
var (
	// ErrOverload reports a call shed by admission control: the export
	// was at its concurrency cap and the call could not (or was not
	// allowed to) wait — its deadline would expire first, the wait queue
	// was full, or it was evicted by higher-priority traffic. The call
	// never reached a handler, so it is always safe to retry.
	ErrOverload = errors.New("lrpc: overloaded (shed by admission control)")

	// ErrBreakerOpen reports a network call rejected while the client's
	// circuit breaker is open: recent calls failed at the connection
	// level, so the client fails fast instead of queueing behind a dead
	// peer. The request was never sent; retry after the breaker's probe
	// recovers.
	ErrBreakerOpen = errors.New("lrpc: circuit breaker open (peer unavailable)")

	// ErrSupervisorClosed reports a call through a closed Supervisor.
	ErrSupervisorClosed = errors.New("lrpc: supervisor closed")
)

// Priority is a call's load-shedding class, carried on CallOpts. Under
// admission pressure lower classes shed first: a full wait queue evicts
// its lowest-priority waiter to make room for a higher-priority arrival,
// and freed capacity is granted to the highest-priority waiter first.
// The zero value is PriorityNormal, so CallOpts{} keeps today's behavior.
type Priority int8

const (
	// PriorityLow marks traffic to shed first (batch work, prefetch).
	PriorityLow Priority = -1
	// PriorityNormal is the default class.
	PriorityNormal Priority = 0
	// PriorityHigh marks traffic to shed last (interactive calls).
	PriorityHigh Priority = 1
)

// AdmissionConfig bounds an export's concurrency (SetAdmission).
type AdmissionConfig struct {
	// MaxConcurrent is the number of calls admitted to run handlers at
	// once. <= 0 disables admission control entirely.
	MaxConcurrent int
	// MaxQueue is the number of callers allowed to wait for admission
	// when the export is at MaxConcurrent. 0 sheds immediately at the
	// cap (no queue).
	MaxQueue int
}

// SetAdmission installs (or, with MaxConcurrent <= 0, removes) admission
// control on the export. The hook is an atomic pointer: with admission
// off the call path pays one nil-checked load; with it on and the export
// under its cap, admission is a single CAS. Calls that entered under an
// earlier configuration drain against it.
func (e *Export) SetAdmission(cfg AdmissionConfig) {
	if cfg.MaxConcurrent <= 0 {
		e.admission.Store(nil)
		return
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	a := &admission{cfg: cfg}
	if e.terminated.Load() {
		a.revoke()
	}
	e.admission.Store(a)
}

// Sheds returns how many calls admission control shed with ErrOverload.
func (e *Export) Sheds() uint64 { return e.sheds.Load() }

// admission is the per-export admission controller: an atomic in-flight
// count for the uncontended path and a mutex-guarded priority queue for
// callers waiting out the cap. The mutex is slow-path only — an admitted
// call's enter is one CAS loop and its exit one atomic add plus a
// nil-traffic waiter probe.
type admission struct {
	cfg      AdmissionConfig
	inflight atomic.Int64
	waiters  atomic.Int32
	revoked  atomic.Bool

	mu    sync.Mutex
	queue []*admWaiter
}

// admWaiter is one caller parked for admission. The verdict channel is
// buffered so granters, evicters, and revokers never block on a waiter
// that already left.
type admWaiter struct {
	ch   chan error // nil: admitted; ErrOverload: evicted; ErrRevoked: terminated
	prio Priority
}

// tryFast claims a slot if the export is under its cap.
func (a *admission) tryFast() bool {
	for {
		cur := a.inflight.Load()
		if cur >= int64(a.cfg.MaxConcurrent) {
			return false
		}
		if a.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// enter admits the call or sheds it. deadline (zero = none) is the
// caller's budget: a call that cannot be admitted before it is shed with
// ErrOverload rather than parked past it. cancel, when non-nil, sheds a
// parked caller on context cancellation.
func (a *admission) enter(prio Priority, deadline time.Time, cancel <-chan struct{}) error {
	if a.revoked.Load() {
		return ErrRevoked
	}
	if a.tryFast() {
		return nil
	}
	// Over-deadline calls shed before parking: if the budget is already
	// spent there is no point joining the queue.
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return ErrOverload
	}
	a.mu.Lock()
	if a.revoked.Load() {
		a.mu.Unlock()
		return ErrRevoked
	}
	if len(a.queue) >= a.cfg.MaxQueue {
		// The queue is full: evict the worst waiter of a strictly lower
		// class to make room, or shed this call. Low priority sheds
		// first — by eviction when outranked, immediately otherwise.
		v := a.evictLocked(prio)
		if v == nil {
			a.mu.Unlock()
			return ErrOverload
		}
		v.ch <- ErrOverload
	}
	w := &admWaiter{ch: make(chan error, 1), prio: prio}
	a.queue = append(a.queue, w)
	a.waiters.Add(1)
	// Register-then-recheck, pairing with exit's decrement-then-probe:
	// whichever of the racing sides moves second sees the other, so a
	// slot freed during registration is never missed.
	if a.tryFast() {
		a.removeLocked(w)
		a.waiters.Add(-1)
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()

	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case err := <-w.ch:
		return err
	case <-timeout:
		return a.abandonWait(w)
	case <-cancel:
		return a.abandonWait(w)
	}
}

// abandonWait resolves a parked caller whose deadline or context fired:
// shed with ErrOverload if it is still queued, otherwise honor the
// verdict that raced in (returning an admitted-too-late slot).
func (a *admission) abandonWait(w *admWaiter) error {
	a.mu.Lock()
	if a.removeLocked(w) {
		a.waiters.Add(-1)
		a.mu.Unlock()
		return ErrOverload
	}
	a.mu.Unlock()
	err := <-w.ch // verdict already issued; the channel is buffered
	if err == nil {
		a.exit() // admitted after the budget expired: give the slot back
		return ErrOverload
	}
	return err
}

// exit releases an admitted call's slot and grants it onward.
func (a *admission) exit() {
	a.inflight.Add(-1)
	if a.waiters.Load() > 0 {
		a.grant()
	}
}

// grant hands freed capacity to waiters, highest priority first, FIFO
// within a class.
func (a *admission) grant() {
	a.mu.Lock()
	for len(a.queue) > 0 && a.tryFast() {
		best := 0
		for i := 1; i < len(a.queue); i++ {
			if a.queue[i].prio > a.queue[best].prio {
				best = i
			}
		}
		w := a.queue[best]
		a.queue = append(a.queue[:best], a.queue[best+1:]...)
		a.waiters.Add(-1)
		w.ch <- nil
	}
	a.mu.Unlock()
}

// evictLocked removes and returns the most recently arrived waiter of
// the lowest class strictly below prio, or nil when none is outranked.
func (a *admission) evictLocked(prio Priority) *admWaiter {
	victim := -1
	for i, w := range a.queue {
		if w.prio >= prio {
			continue
		}
		if victim < 0 || w.prio <= a.queue[victim].prio {
			victim = i // <= keeps the latest arrival within the lowest class
		}
	}
	if victim < 0 {
		return nil
	}
	w := a.queue[victim]
	a.queue = append(a.queue[:victim], a.queue[victim+1:]...)
	return w
}

// removeLocked deletes w from the queue, reporting whether it was there.
func (a *admission) removeLocked(w *admWaiter) bool {
	for i := range a.queue {
		if a.queue[i] == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			return true
		}
	}
	return false
}

// revoke fails every waiter with ErrRevoked and sheds all future enters:
// a terminated export can never admit anyone (Terminate calls this, the
// admission analog of astackPool.revoke).
func (a *admission) revoke() {
	a.revoked.Store(true)
	a.mu.Lock()
	q := a.queue
	a.queue = nil
	a.waiters.Add(-int32(len(q)))
	a.mu.Unlock()
	for _, w := range q {
		w.ch <- ErrRevoked
	}
}

// recordShed accounts one ErrOverload: the export counter, the pool's
// shed gauge, and a TraceShed event. Never on the fast path.
func (b *Binding) recordShed(p *Proc, pool *astackPool, err error) {
	b.exp.sheds.Add(1)
	if o := pool.obs.Load(); o != nil {
		o.sheds.add(0, 1)
	}
	b.sys.emitTrace(TraceShed, b.exp.iface.Name, p.Name, err)
}

// --- Circuit breaker (network plane; wired into NetClient in net.go) ---

// breaker states.
const (
	brClosed int32 = iota
	brOpen
	brHalfOpen
)

// breaker is a consecutive-failure circuit breaker: closed until
// `threshold` connection-level failures in a row, then open for a
// cooldown that doubles per re-open up to a cap. After the cooldown one
// probe call is let through (half-open); its success closes the breaker,
// its failure re-opens it.
type breaker struct {
	threshold   int
	cooldown0   time.Duration
	cooldownMax time.Duration

	state   atomic.Int32
	fails   atomic.Int32 // consecutive connection-level failures
	until   atomic.Int64 // unix-nano instant the next probe is allowed
	opens   atomic.Uint64
	rejects atomic.Uint64 // calls failed fast while open

	mu       sync.Mutex
	cooldown time.Duration // current (escalating) cooldown
}

func newBreaker(threshold int, cooldown, cooldownMax time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown0: cooldown, cooldownMax: cooldownMax}
}

// allow admits a call, fails it fast, or elects it the half-open probe.
func (br *breaker) allow(now time.Time) (probe bool, err error) {
	switch br.state.Load() {
	case brClosed:
		return false, nil
	case brOpen:
		if now.UnixNano() >= br.until.Load() && br.state.CompareAndSwap(brOpen, brHalfOpen) {
			return true, nil // this caller probes the peer
		}
	}
	// Open inside the cooldown, or half-open with the probe in flight.
	br.rejects.Add(1)
	return false, ErrBreakerOpen
}

// success records an end-to-end reply; it reports whether this success
// closed a previously open/half-open breaker.
func (br *breaker) success() (closedNow bool) {
	br.fails.Store(0)
	if br.state.Swap(brClosed) == brClosed {
		return false
	}
	br.mu.Lock()
	br.cooldown = 0 // recovery resets the escalation
	br.mu.Unlock()
	return true
}

// failure records a connection-level failure; it reports whether this
// failure opened the breaker (threshold reached, or a probe failed).
func (br *breaker) failure(now time.Time) (openedNow bool) {
	st := br.state.Load()
	n := br.fails.Add(1)
	switch st {
	case brClosed:
		if int(n) < br.threshold {
			return false
		}
	case brOpen:
		return false // already waiting out a cooldown
	}
	br.mu.Lock()
	d := br.cooldown
	if d <= 0 {
		d = br.cooldown0
	} else {
		d *= 2
		if d > br.cooldownMax {
			d = br.cooldownMax
		}
	}
	br.cooldown = d
	br.mu.Unlock()
	br.until.Store(now.Add(d).UnixNano())
	return br.state.Swap(brOpen) != brOpen
}

// Revoked reports whether the binding has been revoked (its exporting
// domain terminated). A revoked binding never carries a call again; a
// Supervisor is the recovery path.
func (b *Binding) Revoked() bool { return b.rec == nil || b.rec.revoked.Load() }

// --- Orphan-activation accounting ---

// orphanRec labels one abandoned activation in the system registry.
type orphanRec struct {
	exp  *Export
	proc string
}

// addOrphan registers an activation its caller abandoned: the handler is
// still running (possibly inside a terminated export) and still holds its
// A-stack. Registered system-wide so orphans survive the export being
// unregistered by Terminate.
func (s *System) addOrphan(act *activation, e *Export, proc string) {
	s.orphanMu.Lock()
	if s.orphans == nil {
		s.orphans = make(map[*activation]orphanRec)
	}
	s.orphans[act] = orphanRec{exp: e, proc: proc}
	s.orphanMu.Unlock()
}

// ReapOrphans sweeps the orphan registry: activations whose handlers
// have since returned are reaped (their A-stacks were reclaimed by the
// activation itself; the reap closes the books and emits TraceReap),
// the rest are reported as live. Supervisors run this on a timer;
// callers may invoke it directly.
func (s *System) ReapOrphans() (reaped, live int) {
	var done []orphanRec
	s.orphanMu.Lock()
	for act, rec := range s.orphans {
		select {
		case <-act.done:
			delete(s.orphans, act)
			done = append(done, rec)
		default:
			live++
		}
	}
	s.orphanMu.Unlock()
	for _, rec := range done {
		s.reaped.Add(1)
		s.emitTrace(TraceReap, rec.exp.iface.Name, rec.proc, nil)
	}
	return len(done), live
}

// Orphans returns the number of live orphaned activations system-wide:
// abandoned calls whose handlers have not yet returned.
func (s *System) Orphans() int {
	n := 0
	s.orphanMu.Lock()
	for act := range s.orphans {
		select {
		case <-act.done:
		default:
			n++
		}
	}
	s.orphanMu.Unlock()
	return n
}

// Reaped returns how many orphaned activations have been reaped.
func (s *System) Reaped() uint64 { return s.reaped.Load() }

// Orphans returns the export's share of the live orphan registry.
func (e *Export) Orphans() int {
	n := 0
	e.sys.orphanMu.Lock()
	for act, rec := range e.sys.orphans {
		if rec.exp != e {
			continue
		}
		select {
		case <-act.done:
		default:
			n++
		}
	}
	e.sys.orphanMu.Unlock()
	return n
}
