package lrpc

// SuperviseReplicated is the availability capstone over the registry
// plane: a supervisor that resolves a service through the replicated
// registry, binds via the cheapest live plane (in-process → shared
// memory → TCP, the TransparentBinding ladder), and fails over between
// endpoints when its current one dies — while preserving §5.3's
// at-most-once contract. The failover classification is strict: a call
// is re-sent to another endpoint only when its non-execution is provable
// (ErrRevoked/ErrOverload/ErrNoAStacks from the local plane, ErrNotSent
// from the transport, an ErrNotExecuted server vouch, or ErrBreakerOpen
// fail-fasts). A timeout or mid-call connection loss returns the error —
// the server may have executed the call — and recovery proceeds in the
// background so the caller's *next* call finds a live binding.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicatedOpts tunes SuperviseReplicated. The zero value works.
type ReplicatedOpts struct {
	// Registry tunes the embedded registry client (replica call budgets,
	// fault-injected dialers).
	Registry RegistryClientOpts
	// Local, when set, lets the supervisor bind in-process: an endpoint
	// with PlaneInproc resolves to Local.Import(name).
	Local *System
	// Net is the DialOptions template for TCP endpoints (breaker
	// settings, timeouts ride here); the Dial field is ignored — set
	// DialTCP for per-address dialing.
	Net DialOptions
	// DialTCP overrides how TCP endpoints are dialed (default net.Dial)
	// — the fault-injection joint for partitions and crashed servers.
	DialTCP func(addr string) (net.Conn, error)
	// ShmDial overrides how shm endpoints are dialed (default DialShm).
	ShmDial func(path, name string) (*ShmClient, error)
	// RebindAttempts bounds resolve-and-bind rounds per recovery (and
	// call retries across failovers). 0 selects 20.
	RebindAttempts int
	// RebindBackoffInitial/Max shape the capped exponential backoff
	// between recovery rounds. Zero values select 5ms and 250ms.
	RebindBackoffInitial time.Duration
	RebindBackoffMax     time.Duration
	// ProbeInterval is the background health-probe period: a supervisor
	// whose binding has died recovers ahead of the next call. 0 selects
	// 100ms; negative disables the prober.
	ProbeInterval time.Duration
	// RetryFailedCalls also fails calls over after ErrCallFailed — the
	// handler may have executed, so enable this only for idempotent
	// interfaces (same contract as SupervisorOpts.RetryFailedCalls).
	RetryFailedCalls bool
	// Tracer receives TraceFailover and TraceRebind events.
	Tracer Tracer
}

func (o *ReplicatedOpts) fill() {
	if o.RebindAttempts <= 0 {
		o.RebindAttempts = 20
	}
	if o.RebindBackoffInitial <= 0 {
		o.RebindBackoffInitial = 5 * time.Millisecond
	}
	if o.RebindBackoffMax <= 0 {
		o.RebindBackoffMax = 250 * time.Millisecond
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 100 * time.Millisecond
	}
}

// ReplicatedStats snapshots a replicated supervisor's recovery counters.
type ReplicatedStats struct {
	Resolves  uint64   // registry resolutions performed
	Rebinds   uint64   // bindings (re-)established
	Failovers uint64   // rebinds that landed on a different endpoint
	Endpoint  Endpoint // the endpoint currently bound (zero if none)
}

// boundPlane is the supervisor's current transport: the binding plus the
// registry endpoint it was built from (for failover accounting).
type boundPlane struct {
	tb *TransparentBinding
	ep Endpoint
}

// ReplicatedSupervisor owns a service binding resolved through the
// replicated registry and keeps it alive across server crashes, lease
// expiries, and registry leader changes. Safe for concurrent use.
type ReplicatedSupervisor struct {
	name string
	opts ReplicatedOpts
	rc   *RegistryClient

	cur atomic.Pointer[boundPlane]

	mu         sync.Mutex
	rebinding  bool
	rebindDone chan struct{}
	rebindErr  error
	closed     bool

	closeCh chan struct{}

	resolves  atomic.Uint64
	rebinds   atomic.Uint64
	failovers atomic.Uint64
}

// SuperviseReplicated resolves name through the registry replicas at
// registryAddrs, binds to the best live endpoint, and returns a
// supervisor that fails over transparently. The initial resolve-and-bind
// is synchronous: an error means no replica answered or no endpoint was
// reachable.
func SuperviseReplicated(name string, opts ReplicatedOpts, registryAddrs ...string) (*ReplicatedSupervisor, error) {
	if len(registryAddrs) == 0 {
		return nil, errors.New("lrpc: SuperviseReplicated requires at least one registry address")
	}
	opts.fill()
	s := &ReplicatedSupervisor{
		name:    name,
		opts:    opts,
		rc:      NewRegistryClient(registryAddrs, opts.Registry),
		closeCh: make(chan struct{}),
	}
	if err := s.runRebind(context.Background(), Endpoint{}); err != nil {
		s.rc.Close()
		return nil, err
	}
	if opts.ProbeInterval > 0 {
		go s.probeLoop()
	}
	return s, nil
}

// Registry exposes the supervisor's registry client (shared leader
// hints; useful for issuing Resolve/Status probes alongside calls).
func (s *ReplicatedSupervisor) Registry() *RegistryClient { return s.rc }

// Endpoint returns the endpoint the supervisor is currently bound to.
func (s *ReplicatedSupervisor) Endpoint() Endpoint {
	if bp := s.cur.Load(); bp != nil {
		return bp.ep
	}
	return Endpoint{}
}

// Stats snapshots the recovery counters.
func (s *ReplicatedSupervisor) Stats() ReplicatedStats {
	st := ReplicatedStats{
		Resolves:  s.resolves.Load(),
		Rebinds:   s.rebinds.Load(),
		Failovers: s.failovers.Load(),
	}
	if bp := s.cur.Load(); bp != nil {
		st.Endpoint = bp.ep
	}
	return st
}

// Close stops the supervisor: the prober exits, the current transport is
// released, and subsequent calls fail with ErrSupervisorClosed.
func (s *ReplicatedSupervisor) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.closeCh)
	if bp := s.cur.Swap(nil); bp != nil {
		_ = bp.tb.Close()
	}
	return s.rc.Close()
}

// Call invokes the procedure through the current binding, failing over
// between endpoints when non-execution is provable.
func (s *ReplicatedSupervisor) Call(proc int, args []byte) ([]byte, error) {
	return s.CallContext(context.Background(), proc, args)
}

// CallContext is Call under a context.
func (s *ReplicatedSupervisor) CallContext(ctx context.Context, proc int, args []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= s.opts.RebindAttempts; attempt++ {
		select {
		case <-s.closeCh:
			return nil, ErrSupervisorClosed
		default:
		}
		bp := s.cur.Load()
		if bp == nil {
			if err := s.rebind(ctx, nil); err != nil {
				return nil, err
			}
			continue
		}
		res, err := bp.tb.CallContext(ctx, proc, args)
		if err == nil {
			return res, nil
		}
		lastErr = err
		switch {
		case notExecuted(err):
			// Provably never executed: fail over and re-send.
		case errors.Is(err, ErrCallFailed) && s.opts.RetryFailedCalls:
			// The handler may have run; the caller opted into re-execution.
		case errors.Is(err, ErrCallTimeout),
			errors.Is(err, ErrConnClosed),
			errors.Is(err, ErrCallFailed):
			// The call may have executed (in-flight when the transport or
			// handler died): surface the error — re-sending it elsewhere
			// would break at-most-once — but recover in the background so
			// the next call finds a live binding.
			go func() { _ = s.rebind(context.Background(), bp) }()
			return res, err
		default:
			return res, err
		}
		if err := s.rebind(ctx, bp); err != nil {
			return nil, err
		}
	}
	return nil, lastErr
}

// rebind replaces a dead binding, single-flight across concurrent
// callers (the same discipline as Supervisor.rebind).
func (s *ReplicatedSupervisor) rebind(ctx context.Context, stale *boundPlane) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSupervisorClosed
	}
	if cur := s.cur.Load(); cur != nil && cur != stale {
		s.mu.Unlock()
		return nil // another caller already recovered
	}
	if s.rebinding {
		done := s.rebindDone
		s.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return timeoutError(ctx.Err())
		case <-s.closeCh:
			return ErrSupervisorClosed
		}
		s.mu.Lock()
		err := s.rebindErr
		cur := s.cur.Load()
		s.mu.Unlock()
		if cur != nil {
			return nil
		}
		if err == nil {
			err = ErrRegistryUnavailable
		}
		return err
	}
	s.rebinding = true
	s.rebindDone = make(chan struct{})
	done := s.rebindDone
	s.mu.Unlock()

	var failed Endpoint
	if stale != nil {
		failed = stale.ep
	}
	err := s.runRebind(ctx, failed)
	s.mu.Lock()
	s.rebinding = false
	s.rebindErr = err
	s.mu.Unlock()
	close(done)
	return err
}

// runRebind is one recovery round: resolve through any live registry
// replica, rank the endpoints (in-process → shm → TCP, the just-failed
// endpoint demoted to last resort), and bind the first that answers.
// Retries under capped exponential backoff until the attempt budget is
// spent — long enough for a lease expiry or a registry election to
// converge under it.
func (s *ReplicatedSupervisor) runRebind(ctx context.Context, failed Endpoint) error {
	backoff := s.opts.RebindBackoffInitial
	var lastErr error
	for attempt := 0; attempt < s.opts.RebindAttempts; attempt++ {
		select {
		case <-s.closeCh:
			return ErrSupervisorClosed
		case <-ctx.Done():
			return timeoutError(ctx.Err())
		default:
		}
		eps, err := s.rc.Resolve(s.name)
		s.resolves.Add(1)
		if err == nil {
			var bindErr error
			for _, ep := range rankEndpoints(eps, failed) {
				tb, err := s.bindEndpoint(ep)
				if err != nil {
					bindErr = fmt.Errorf("bind %s: %w", ep, err)
					continue
				}
				s.install(tb, ep)
				return nil
			}
			lastErr = bindErr
			if lastErr == nil {
				lastErr = fmt.Errorf("%w: registry returned no endpoints", ErrNoSuchName)
			}
		} else {
			lastErr = err
		}
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return timeoutError(ctx.Err())
		case <-s.closeCh:
			t.Stop()
			return ErrSupervisorClosed
		}
		backoff *= 2
		if backoff > s.opts.RebindBackoffMax {
			backoff = s.opts.RebindBackoffMax
		}
	}
	return fmt.Errorf("%w: failover rebind failed after %d attempts: %v",
		ErrRegistryUnavailable, s.opts.RebindAttempts, lastErr)
}

// install publishes a fresh binding, releasing the old transport and
// accounting the rebind (and failover, when the endpoint changed).
func (s *ReplicatedSupervisor) install(tb *TransparentBinding, ep Endpoint) {
	old := s.cur.Swap(&boundPlane{tb: tb, ep: ep})
	s.rebinds.Add(1)
	s.emit(TraceRebind, ep, nil)
	if old != nil {
		_ = old.tb.Close()
		if old.ep != ep {
			s.failovers.Add(1)
			s.emit(TraceFailover, ep, nil)
		}
	}
}

func (s *ReplicatedSupervisor) emit(kind TraceKind, ep Endpoint, err error) {
	if s.opts.Tracer != nil {
		s.opts.Tracer.TraceEvent(TraceEvent{Kind: kind, Iface: s.name, Proc: ep.String(), Err: err})
	}
}

// rankEndpoints orders candidates by plane preference — in-process, then
// shared memory, then TCP (the paper's Table 1 ladder) — demoting the
// endpoint that just failed behind every alternative.
func rankEndpoints(eps []Endpoint, failed Endpoint) []Endpoint {
	out := append([]Endpoint(nil), eps...)
	rank := func(ep Endpoint) int {
		r := 0
		switch ep.Plane {
		case PlaneInproc:
			r = 0
		case PlaneShm:
			r = 1
		case PlaneTCP:
			r = 2
		default:
			r = 3
		}
		if ep == failed {
			r += 10 // last resort: only if nothing else binds
		}
		return r
	}
	sort.SliceStable(out, func(i, j int) bool { return rank(out[i]) < rank(out[j]) })
	return out
}

// bindEndpoint builds the transport for one endpoint.
func (s *ReplicatedSupervisor) bindEndpoint(ep Endpoint) (*TransparentBinding, error) {
	switch ep.Plane {
	case PlaneInproc:
		if s.opts.Local == nil {
			return nil, errors.New("lrpc: in-process endpoint but no local System configured")
		}
		b, err := s.opts.Local.Import(s.name)
		if err != nil {
			return nil, err
		}
		return BindLocal(b), nil
	case PlaneShm:
		dial := s.opts.ShmDial
		if dial == nil {
			dial = func(path, name string) (*ShmClient, error) { return DialShm(path, name) }
		}
		c, err := dial(ep.Addr, s.name)
		if err != nil {
			return nil, err
		}
		return BindShm(c), nil
	case PlaneTCP:
		dopts := s.opts.Net
		addr := ep.Addr
		if dial := s.opts.DialTCP; dial != nil {
			dopts.Dial = func() (net.Conn, error) { return dial(addr) }
		} else {
			dopts.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
		}
		c, err := NewReconnectingClient(s.name, dopts)
		if err != nil {
			return nil, err
		}
		return BindRemote(c), nil
	default:
		return nil, fmt.Errorf("lrpc: unknown endpoint plane %q", ep.Plane)
	}
}

// probeLoop is the background health prober: a supervisor whose binding
// died (or was revoked) recovers ahead of the next call.
func (s *ReplicatedSupervisor) probeLoop() {
	t := time.NewTicker(s.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.closeCh:
			return
		case <-t.C:
		}
		bp := s.cur.Load()
		if bp == nil {
			_ = s.rebind(context.Background(), nil)
			continue
		}
		if bp.tb.local != nil && bp.tb.local.Revoked() {
			_ = s.rebind(context.Background(), bp)
		}
	}
}
