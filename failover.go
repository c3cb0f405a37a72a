package lrpc

// SuperviseReplicated is the availability capstone over the registry
// plane: a supervisor that resolves a service through a Registry (the
// replicated one is package lrpc/registry's Client), binds via the
// cheapest live plane (in-process → shared memory → TCP, the
// TransparentBinding ladder), and fails over between endpoints when its
// current one dies — while preserving §5.3's
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
	"sync/atomic"
	"time"
)

// ReplicatedOpts tunes SuperviseReplicated. Registry is required; the
// zero value of every other field works.
type ReplicatedOpts struct {
	// Registry resolves the service's endpoints. The caller owns it and
	// closes it after the supervisor.
	Registry Registry
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

// boundPlane is the supervisor's current transport: the binding, the
// registry endpoint it was built from (for failover accounting), and the
// plane's liveness signal for the probe.
type boundPlane struct {
	*TransparentBinding
	ep    Endpoint
	alive func() bool
}

// ReplicatedSupervisor owns a service binding resolved through a
// Registry and keeps it alive across server crashes, lease
// expiries, and registry leader changes. Safe for concurrent use.
//
// It is the rebind core of supervise.go configured for many endpoints:
// the dial func is resolve → rank → bind, the liveness func is the bound
// plane's, the verdict is failoverVerdict, and a spent budget reports
// ErrRegistryUnavailable.
type ReplicatedSupervisor struct {
	rebinder

	name string
	opts ReplicatedOpts

	resolves  atomic.Uint64
	failovers atomic.Uint64
}

// failoverVerdict is the multi-endpoint classification: a call is sent
// to another endpoint only when its non-execution is provable. A timeout
// or a mid-call connection loss may have executed, so it is surfaced —
// and the endpoint, now suspect, is replaced in the background. A
// failure the endpoint itself reported (peerAnswered) is only surfaced.
func failoverVerdict(err error) verdict {
	switch {
	case notExecuted(err):
		return resend
	case peerAnswered(err):
		return surface
	case errors.Is(err, ErrCallTimeout), errors.Is(err, ErrConnClosed), errors.Is(err, ErrCallFailed):
		return suspect
	}
	return surface
}

// SuperviseReplicated resolves name through opts.Registry, binds to the
// best live endpoint, and returns a supervisor that fails over
// transparently. The initial resolve-and-bind is synchronous and spends
// a full recovery round: an error means the registry did not answer or
// no endpoint was reachable.
func SuperviseReplicated(name string, opts ReplicatedOpts) (*ReplicatedSupervisor, error) {
	if opts.Registry == nil {
		return nil, errors.New("lrpc: SuperviseReplicated requires a Registry")
	}
	opts.fill()
	s := &ReplicatedSupervisor{name: name, opts: opts}
	s.rebinder = rebinder{
		dial:           s.resolveAndBind,
		alive:          func(c Caller) bool { return c.(*boundPlane).alive() },
		classify:       failoverVerdict,
		installed:      s.account,
		exhausted:      ErrRegistryUnavailable,
		attempts:       opts.RebindAttempts,
		backoffInitial: opts.RebindBackoffInitial,
		backoffMax:     opts.RebindBackoffMax,
		retryFailed:    opts.RetryFailedCalls,
		closeCh:        make(chan struct{}),
	}
	if err := s.round(context.Background()); err != nil {
		return nil, err
	}
	if opts.ProbeInterval > 0 {
		go s.every(opts.ProbeInterval, s.probe)
	}
	return s, nil
}

// Endpoint returns the endpoint the supervisor is currently bound to.
func (s *ReplicatedSupervisor) Endpoint() Endpoint {
	if bp, ok := s.current().(*boundPlane); ok {
		return bp.ep
	}
	return Endpoint{}
}

// Stats snapshots the recovery counters.
func (s *ReplicatedSupervisor) Stats() ReplicatedStats {
	return ReplicatedStats{
		Resolves:  s.resolves.Load(),
		Rebinds:   s.rebinds.Load(),
		Failovers: s.failovers.Load(),
		Endpoint:  s.Endpoint(),
	}
}

// Close stops the supervisor: the prober exits, the current transport is
// released, and subsequent calls fail with ErrSupervisorClosed. The
// Registry is the caller's to close.
func (s *ReplicatedSupervisor) Close() error {
	s.shut()
	return nil
}

// resolveAndBind is the one-attempt dial func: resolve through the
// registry, rank the endpoints (in-process → shm → TCP, the
// endpoint being replaced demoted to last resort), and bind the first
// that answers. The core retries it under backoff — long enough for a
// lease expiry or a registry election to converge under it.
func (s *ReplicatedSupervisor) resolveAndBind(old Caller) (Caller, error) {
	var failed Endpoint
	if bp, ok := old.(*boundPlane); ok {
		failed = bp.ep
	}
	eps, err := s.opts.Registry.Resolve(s.name)
	s.resolves.Add(1)
	if err != nil {
		return nil, err
	}
	bindErr := fmt.Errorf("%w: registry returned no endpoints", ErrNoSuchName)
	for _, ep := range rankEndpoints(eps, failed) {
		bp, err := s.bindEndpoint(ep)
		if err == nil {
			return bp, nil
		}
		bindErr = fmt.Errorf("bind %s: %w", ep, err)
	}
	return nil, bindErr
}

// account records a published binding: a rebind always, a failover when
// the endpoint changed.
func (s *ReplicatedSupervisor) account(old, cur Caller) {
	ep := cur.(*boundPlane).ep
	s.emit(TraceRebind, ep, nil)
	if bp, ok := old.(*boundPlane); ok && bp.ep != ep {
		s.failovers.Add(1)
		s.emit(TraceFailover, ep, nil)
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

// bindEndpoint builds the transport for one endpoint, with the liveness
// signal its plane offers: a local binding is dead once revoked, a shm
// session once its peer died; a NetClient redials itself, so there is
// nothing for the probe to see — its failures reach the verdict instead.
func (s *ReplicatedSupervisor) bindEndpoint(ep Endpoint) (*boundPlane, error) {
	switch ep.Plane {
	case PlaneInproc:
		if s.opts.Local == nil {
			return nil, errors.New("lrpc: in-process endpoint but no local System configured")
		}
		b, err := s.opts.Local.Import(s.name)
		if err != nil {
			return nil, err
		}
		return &boundPlane{BindLocal(b), ep, func() bool { return !b.Revoked() }}, nil
	case PlaneShm:
		c, err := DialShm(ep.Addr, s.name)
		if err != nil {
			return nil, err
		}
		return &boundPlane{BindShm(c), ep, func() bool { return !c.peerDied() }}, nil
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
		return &boundPlane{BindRemote(c), ep, func() bool { return true }}, nil
	default:
		return nil, fmt.Errorf("lrpc: unknown endpoint plane %q", ep.Plane)
	}
}
