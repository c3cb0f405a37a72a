package lrpc

// Supervised recovery, written once. The paper survives a terminated
// domain by one mechanism — the binding is revoked, the client imports
// again (§5.3) — and this file is that mechanism for every plane: one
// Caller interface the client receivers share, one rebind core over it,
// and the two single-endpoint supervisors as configurations of the core
// (SuperviseReplicated, in failover.go, is the third).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Caller is the call surface every client receiver of the package
// shares: a binding, a transport session, a TransparentBinding, a
// supervisor or a broker session. Code written against it — the typed
// stubs lrpcgen emits hold one — runs unchanged in process, over shared
// memory, over TCP, through the broker, and under any supervisor.
type Caller interface {
	Call(proc int, args []byte) ([]byte, error)
	CallContext(ctx context.Context, proc int, args []byte) ([]byte, error)
}

// Every client receiver is a Caller; a new one that forgets the surface
// fails the build here.
var (
	_ Caller = (*Binding)(nil)
	_ Caller = (*ShmClient)(nil)
	_ Caller = (*NetClient)(nil)
	_ Caller = (*TransparentBinding)(nil)
	_ Caller = (*Supervisor)(nil)
	_ Caller = (*ShmSupervisor)(nil)
	_ Caller = (*ReplicatedSupervisor)(nil)
	_ Caller = (*BrokerSession)(nil)
)

// verdict is what a supervisor does with a failed call.
type verdict int

const (
	// surface returns the error; the binding is not in question.
	surface verdict = iota
	// suspect returns the error — the call may have executed, so sending
	// it again would break at-most-once — and recovers in the background
	// so the next call finds a live binding.
	suspect
	// resend rebinds and sends the call again: it provably never ran.
	resend
)

// revokedVerdict is the single-endpoint classification: ErrRevoked never
// reached a handler; ErrCallFailed means the domain died under the call,
// unless a peer reported it (peerAnswered).
func revokedVerdict(err error) verdict {
	switch {
	case errors.Is(err, ErrRevoked):
		return resend
	case peerAnswered(err):
		return surface
	case errors.Is(err, ErrCallFailed):
		return suspect
	}
	return surface
}

// peerAnswered reports a failure the peer sent back as a failure record
// (a *RemoteError, alone or as a chain stage's cause): the peer is alive
// and the binding is not in question — brObserve's reasoning — so a
// remote handler's panic or a relay's upstream timeout is surfaced, not
// answered with a rebind that would fail the binding's other calls.
func peerAnswered(err error) bool { return errors.As(err, new(*RemoteError)) }

// rebinder is the supervised-recovery core: it owns the current Caller
// and replaces it when it dies. Calls go through the current Caller; a
// failed call is classified; a resend verdict (or a Caller the liveness
// func reports dead) starts a rebind — single-flight, so concurrent
// callers wait on one round instead of dialing each — and a round is the
// one-attempt dial func under capped exponential backoff until it yields
// a Caller or the attempt budget is spent. Waiters and the backoff sleep
// both give way to the caller's context and to Close.
//
// What differs per constructor is only the configuration block below.
//
// NetClient.getConn is deliberately not an instance of this: its redial
// is jittered, spends a per-call budget, feeds the circuit breaker, and
// sits on the path of every TCP call, where this core's mutex and timer
// would be a cost; it recovers a connection, this recovers a binding.
type rebinder struct {
	// dial makes one attempt at a fresh Caller; old is the one being
	// replaced (nil on the first bind).
	dial func(old Caller) (Caller, error)
	// alive reports whether a Caller can still carry calls; the probe and
	// the call path rebind ahead of the failure when it cannot.
	alive func(Caller) bool
	// classify maps a failed call to its verdict.
	classify func(error) verdict
	// installed, when set, runs after a fresh Caller is published.
	installed func(old, cur Caller)
	// exhausted is the sentinel a spent attempt budget wraps.
	exhausted error

	attempts       int
	backoffInitial time.Duration
	backoffMax     time.Duration
	retryFailed    bool // the RetryFailedCalls opt-in: resend ErrCallFailed too

	cur     atomic.Pointer[Caller]
	rebinds atomic.Uint64

	mu         sync.Mutex
	rebindDone chan struct{} // non-nil while a round is running
	rebindErr  error         // the last round's outcome
	closed     bool

	closeCh chan struct{}
}

func (r *rebinder) current() Caller {
	if p := r.cur.Load(); p != nil {
		return *p
	}
	return nil
}

// adopt publishes an already-dialed first Caller without counting a
// rebind.
func (r *rebinder) adopt(c Caller) { r.cur.Store(&c) }

// shut marks the supervisor closed — calls, waiters and a running round
// all see it at once — and releases the current Caller's transport. It
// reports whether this call was the one that closed it.
func (r *rebinder) shut() bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	r.closed = true
	close(r.closeCh)
	r.mu.Unlock()
	closeCaller(r.current())
	return true
}

// closeCaller releases a Caller that holds a transport (a shm session, a
// TCP client); a local Binding holds none and is left to its export.
func closeCaller(c Caller) {
	if cl, ok := c.(io.Closer); ok {
		_ = cl.Close()
	}
}

// Call invokes the procedure through the current binding, recovering
// when it dies.
func (r *rebinder) Call(proc int, args []byte) ([]byte, error) {
	return r.CallContext(context.Background(), proc, args)
}

// CallContext is Call under a context, which also bounds any recovery
// the call waits for.
func (r *rebinder) CallContext(ctx context.Context, proc int, args []byte) ([]byte, error) {
	return r.do(ctx, func(c Caller) ([]byte, error) { return c.CallContext(ctx, proc, args) })
}

// do runs one call through the current Caller, rebinding and re-sending
// while the verdict allows and the attempt budget lasts.
func (r *rebinder) do(ctx context.Context, call func(Caller) ([]byte, error)) ([]byte, error) {
	lastErr := r.exhausted
	for attempt := 0; attempt <= r.attempts; attempt++ {
		select {
		case <-r.closeCh:
			return nil, ErrSupervisorClosed
		default:
		}
		c := r.current()
		if c != nil && r.alive(c) {
			res, err := call(c)
			if err == nil {
				return res, nil
			}
			lastErr = err
			v := r.classify(err)
			if v == suspect && r.retryFailed && errors.Is(err, ErrCallFailed) {
				v = resend // the handler may have run; the caller opted into re-execution
			}
			switch v {
			case suspect:
				go func() { _ = r.rebind(context.Background(), c) }()
				return res, err
			case surface:
				return res, err
			}
		}
		if err := r.rebind(ctx, c); err != nil {
			return nil, err
		}
	}
	return nil, lastErr
}

// rebind replaces a stale Caller, single-flight: one caller runs the
// round, the rest wait on its outcome.
func (r *rebinder) rebind(ctx context.Context, stale Caller) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrSupervisorClosed
	}
	if cur := r.current(); cur != nil && cur != stale && r.alive(cur) {
		r.mu.Unlock()
		return nil // another caller already recovered
	}
	if done := r.rebindDone; done != nil {
		r.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return timeoutError(ctx.Err())
		case <-r.closeCh:
			return ErrSupervisorClosed
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.rebindErr
	}
	r.rebindDone = make(chan struct{})
	done := r.rebindDone
	r.mu.Unlock()

	err := r.round(ctx)
	r.mu.Lock()
	r.rebindDone = nil
	r.rebindErr = err
	r.mu.Unlock()
	close(done)
	return err
}

// round is one recovery round: dial under capped exponential backoff
// until a Caller is installed or the attempt budget is spent.
func (r *rebinder) round(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return timeoutError(err)
	}
	backoff := r.backoffInitial
	var lastErr error
	for attempt := 0; attempt < r.attempts; attempt++ {
		c, err := r.dial(r.current())
		if err == nil {
			return r.install(c)
		}
		lastErr = err
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return timeoutError(ctx.Err())
		case <-r.closeCh:
			t.Stop()
			return ErrSupervisorClosed
		}
		backoff *= 2
		if backoff > r.backoffMax {
			backoff = r.backoffMax
		}
	}
	return fmt.Errorf("%w: rebind failed after %d attempts: %v", r.exhausted, r.attempts, lastErr)
}

// install publishes a fresh Caller and releases the one it replaces. A
// dial that finished after Close is released instead of installed.
func (r *rebinder) install(c Caller) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		closeCaller(c)
		return ErrSupervisorClosed
	}
	prev := r.current()
	r.cur.Store(&c)
	r.rebinds.Add(1)
	r.mu.Unlock()
	if r.installed != nil {
		r.installed(prev, c)
	}
	closeCaller(prev)
	return nil
}

// every runs tick on a period until the supervisor closes.
func (r *rebinder) every(period time.Duration, tick func()) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-r.closeCh:
			return
		case <-t.C:
			tick()
		}
	}
}

// probe is the background health check: a binding found dead is replaced
// ahead of the next call.
func (r *rebinder) probe() {
	if c := r.current(); c == nil || !r.alive(c) {
		_ = r.rebind(context.Background(), c)
	}
}

// SupervisorOpts tunes Supervise and SuperviseShm. The zero value
// selects defaults.
type SupervisorOpts struct {
	// RebindAttempts bounds the import retries of one recovery round
	// (and the call retries across rounds). 0 selects 20.
	RebindAttempts int
	// RebindBackoffInitial/Max shape the capped exponential backoff
	// between import attempts. Zero values select 1ms and 100ms.
	RebindBackoffInitial time.Duration
	RebindBackoffMax     time.Duration
	// ProbeInterval is the health-probe period: the supervisor checks
	// its binding and rebinds proactively when it finds it revoked, so
	// recovery usually completes before the next call arrives. 0 selects
	// 50ms; negative disables the background prober (calls still recover
	// on demand).
	ProbeInterval time.Duration
	// ReapInterval is the orphan-reaper period (System.ReapOrphans on
	// the supervised system). 0 selects the probe interval; negative
	// disables the background reaper.
	ReapInterval time.Duration
	// RetryFailedCalls also retries calls that resolved ErrCallFailed —
	// the handler may have executed, so enable this only for idempotent
	// interfaces. ErrRevoked calls (which never reached a handler) are
	// always retried.
	RetryFailedCalls bool
}

func (o *SupervisorOpts) fill() {
	if o.RebindAttempts <= 0 {
		o.RebindAttempts = 20
	}
	if o.RebindBackoffInitial <= 0 {
		o.RebindBackoffInitial = time.Millisecond
	}
	if o.RebindBackoffMax <= 0 {
		o.RebindBackoffMax = 100 * time.Millisecond
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 50 * time.Millisecond
	}
	if o.ReapInterval == 0 {
		o.ReapInterval = o.ProbeInterval
	}
}

// core is the single-endpoint configuration Supervise and SuperviseShm
// share.
func (o SupervisorOpts) core(dial func(Caller) (Caller, error), alive func(Caller) bool) rebinder {
	return rebinder{
		dial:           dial,
		alive:          alive,
		classify:       revokedVerdict,
		exhausted:      ErrRevoked,
		attempts:       o.RebindAttempts,
		backoffInitial: o.RebindBackoffInitial,
		backoffMax:     o.RebindBackoffMax,
		retryFailed:    o.RetryFailedCalls,
		closeCh:        make(chan struct{}),
	}
}

// Supervisor owns a binding on the caller's behalf: calls go through the
// current binding, and when the server domain terminates (ErrRevoked)
// the supervisor re-imports — with backoff, single-flight across
// concurrent callers — and retries, reproducing the paper's revocation
// semantics with automatic recovery. A background prober rebinds ahead
// of demand and a background reaper accounts for orphaned activations.
type Supervisor struct {
	rebinder
}

// Supervise imports eagerly through importFn and returns a supervisor
// owning the resulting binding. importFn is re-run (with backoff) after
// every revocation; it must be safe for concurrent use with the calls.
func Supervise(importFn func() (*Binding, error), opts SupervisorOpts) (*Supervisor, error) {
	if importFn == nil {
		return nil, errors.New("lrpc: Supervise requires an import function")
	}
	opts.fill()
	b, err := importFn()
	if err != nil {
		return nil, err
	}
	dial := func(Caller) (Caller, error) {
		b, err := importFn()
		switch {
		case err != nil:
			return nil, err
		case b == nil:
			return nil, ErrNotExported
		case b.Revoked():
			// Import raced a termination and handed back an
			// already-revoked binding; a miss, retried like any other.
			return nil, ErrRevoked
		}
		return b, nil
	}
	s := &Supervisor{opts.core(dial, func(c Caller) bool { return !c.(*Binding).Revoked() })}
	s.adopt(b)
	s.installed = func(_, cur Caller) {
		b := cur.(*Binding)
		b.sys.emitTrace(TraceRebind, b.exp.iface.Name, "", nil)
	}
	if opts.ProbeInterval > 0 {
		go s.every(opts.ProbeInterval, s.probe)
	}
	if sys := b.sys; opts.ReapInterval > 0 {
		go s.every(opts.ReapInterval, func() { sys.ReapOrphans() })
	}
	return s, nil
}

// Binding returns the supervisor's current binding (which may be revoked
// if a rebind is in progress).
func (s *Supervisor) Binding() *Binding { return s.current().(*Binding) }

// Rebinds returns how many times the supervisor re-imported.
func (s *Supervisor) Rebinds() uint64 { return s.rebinds.Load() }

// Close stops the supervisor's background goroutines and fails
// subsequent calls with ErrSupervisorClosed. The current binding is left
// intact.
func (s *Supervisor) Close() { s.shut() }

// CallWithOpts is Call with per-call options (deadline, priority).
func (s *Supervisor) CallWithOpts(proc int, args []byte, opts CallOpts) ([]byte, error) {
	ctx := context.Background()
	if !opts.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, opts.Deadline)
		defer cancel()
	}
	return s.do(ctx, func(c Caller) ([]byte, error) {
		return c.(*Binding).callContextPrio(ctx, proc, args, opts.Priority)
	})
}

// ShmSupervisor is Supervise for the shared-memory plane: it holds the
// current session, re-dials when the peer dies (server restart, export
// termination, crash), and probes in the background so recovery usually
// completes before the next call arrives. On platforms without the plane
// the first dial already fails with ErrShmUnsupported.
type ShmSupervisor struct {
	rebinder
}

// SuperviseShm dials the first session and supervises it. The dial
// function is retried with the supervisor's backoff whenever the
// session's binding is revoked.
func SuperviseShm(dial func() (*ShmClient, error), opts SupervisorOpts) (*ShmSupervisor, error) {
	opts.fill()
	c, err := dial()
	if err != nil {
		return nil, err
	}
	redial := func(Caller) (Caller, error) { return dial() }
	s := &ShmSupervisor{opts.core(redial, func(c Caller) bool { return !c.(*ShmClient).peerDied() })}
	s.adopt(c)
	if opts.ProbeInterval > 0 {
		go s.every(opts.ProbeInterval, s.probe)
	}
	return s, nil
}

// Client returns the current session; after Close it is the closed last
// one.
func (s *ShmSupervisor) Client() *ShmClient { return s.current().(*ShmClient) }

// Rebinds returns how many times the supervisor re-dialed.
func (s *ShmSupervisor) Rebinds() uint64 { return s.rebinds.Load() }

// Close stops the supervisor and closes its current session.
func (s *ShmSupervisor) Close() error {
	s.shut()
	return nil
}
