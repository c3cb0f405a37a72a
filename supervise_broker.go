package lrpc

// SuperviseBroker: the tenant side of the broker plane. A BrokerSession
// is a NetClient whose dial hook re-resolves the broker through the
// Registry, re-dials, and re-admits with a HELLO before the
// connection carries data — so a SIGKILLed-and-restarted broker is
// survived the same way SuperviseReplicated survives a crashed server:
// the NetClient's redial machinery replays only frames that provably
// never reached the wire, each redial runs a fresh admission (lease
// re-admission on the new broker generation), and written-but-
// unacknowledged frames surface as ErrConnClosed rather than being
// retried, preserving at-most-once across broker death.

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"time"
)

// BrokerTenantOpts configures one tenant's supervised broker session.
type BrokerTenantOpts struct {
	// Tenant is the tenant identity presented at HELLO. Required.
	Tenant string
	// Token authenticates the tenant when its policy entry demands one.
	Token string
	// Service is the backend service this tenant calls; the broker
	// relays only frames for it. Required.
	Service string
	// BrokerName is the registry name the broker announces under.
	// Empty selects DefaultBrokerName.
	BrokerName string
	// BrokerAddrs are static broker addresses tried after (or instead
	// of) registry resolution — registry-less deployments and tests.
	BrokerAddrs []string
	// Registry, when set, resolves BrokerName before every dial. The
	// caller owns it and closes it after the session.
	Registry Registry
	// Net tunes the underlying NetClient (timeouts, redial budget,
	// breaker). Its Dial field is overwritten by the supervisor.
	Net DialOptions
	// DialTCP overrides the raw broker dial — the fault-injection joint.
	// nil selects net.Dial("tcp", addr).
	DialTCP func(addr string) (net.Conn, error)
	// HelloTimeout bounds one admission round trip. 0 selects 2s.
	HelloTimeout time.Duration
}

// BrokerSessionStats is a point-in-time view of one tenant session.
type BrokerSessionStats struct {
	// Generation is the broker generation of the last admission; it
	// changes when the tenant reattaches to a restarted broker.
	Generation uint64
	// Lease is the tenant lease the broker minted at the last admission.
	Lease uint64
	// PolicyVersion is the policy version reported at the last admission.
	PolicyVersion uint64
	// Admits counts successful HELLOs (first attach + every reattach).
	Admits uint64
	// Reattaches counts admissions against a DIFFERENT broker
	// generation than the previous one — broker restarts survived.
	Reattaches uint64
	// Net is the underlying client's lifetime counters.
	Net NetClientStats
}

// BrokerSession is one tenant's supervised connection to the broker
// plane. Safe for concurrent use; Call/CallContext have NetClient
// semantics (including at-most-once retry classification).
type BrokerSession struct {
	opts   BrokerTenantOpts
	client *NetClient

	gen        atomic.Uint64
	lease      atomic.Uint64
	policyVer  atomic.Uint64
	admits     atomic.Uint64
	reattaches atomic.Uint64
}

// SuperviseBroker builds a tenant session against the broker resolved
// through opts.Registry (and/or opts.BrokerAddrs). The
// first admission is synchronous: an error means no broker admitted the
// tenant — including a policy refusal (unknown tenant, bad token),
// which is permanent until policy changes and is surfaced rather than
// retried.
func SuperviseBroker(opts BrokerTenantOpts) (*BrokerSession, error) {
	if opts.Tenant == "" {
		return nil, errors.New("lrpc: SuperviseBroker requires a tenant identity")
	}
	if opts.Service == "" {
		return nil, errors.New("lrpc: SuperviseBroker requires a service name")
	}
	if opts.BrokerName == "" {
		opts.BrokerName = DefaultBrokerName
	}
	if opts.HelloTimeout <= 0 {
		opts.HelloTimeout = 2 * time.Second
	}
	if opts.DialTCP == nil {
		opts.DialTCP = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, opts.HelloTimeout)
		}
	}
	if opts.Registry == nil && len(opts.BrokerAddrs) == 0 {
		return nil, errors.New("lrpc: SuperviseBroker needs a Registry or BrokerAddrs")
	}
	s := &BrokerSession{opts: opts}
	nopts := opts.Net
	nopts.Dial = s.dialAdmitted
	client, err := NewReconnectingClient(opts.Service, nopts)
	if err != nil {
		return nil, err
	}
	s.client = client
	return s, nil
}

// candidates resolves the current broker address list: registry
// endpoints first (the registry knows about restarts), static addresses
// after.
func (s *BrokerSession) candidates() []string {
	var addrs []string
	if s.opts.Registry != nil {
		if eps, err := s.opts.Registry.Resolve(s.opts.BrokerName); err == nil {
			for _, ep := range eps {
				if ep.Plane == PlaneTCP {
					addrs = append(addrs, ep.Addr)
				}
			}
		}
	}
	addrs = append(addrs, s.opts.BrokerAddrs...)
	return addrs
}

// dialAdmitted is the NetClient dial hook: every (re)connection —
// including every redial after a broker death — resolves, dials, and
// runs the admission handshake before the NetClient sees the conn. The
// previous generation and lease ride in the HELLO so the new broker
// can count the reattach.
func (s *BrokerSession) dialAdmitted() (net.Conn, error) {
	addrs := s.candidates()
	if len(addrs) == 0 {
		return nil, errors.New("lrpc: no broker endpoint resolved")
	}
	var lastErr error
	for _, addr := range addrs {
		conn, err := s.opts.DialTCP(addr)
		if err != nil {
			lastErr = err
			continue
		}
		r, err := brokerHello(conn, brokerHelloArgs{Tenant: s.opts.Tenant, Token: s.opts.Token,
			Service: s.opts.Service, PrevGen: s.gen.Load(), PrevLease: s.lease.Load()}, s.opts.HelloTimeout)
		if err != nil {
			conn.Close()
			lastErr = err
			// A policy refusal is a verdict, not a flake: trying the
			// next resolved endpoint of the SAME broker name cannot
			// change it, but a stale registry entry for a dead
			// generation can coexist with a live one, so keep sweeping.
			continue
		}
		prev := s.gen.Swap(r.Gen)
		s.lease.Store(r.Lease)
		s.policyVer.Store(r.PolicyVersion)
		s.admits.Add(1)
		if prev != 0 && prev != r.Gen {
			s.reattaches.Add(1)
		}
		return conn, nil
	}
	return nil, lastErr
}

// Call invokes proc through the broker with the session's default
// deadline semantics.
func (s *BrokerSession) Call(proc int, args []byte) ([]byte, error) {
	return s.client.Call(proc, args)
}

// CallContext invokes proc through the broker under ctx.
func (s *BrokerSession) CallContext(ctx context.Context, proc int, args []byte) ([]byte, error) {
	return s.client.CallContext(ctx, proc, args)
}

// CallChain runs a staged pipeline in the upstream server's domain,
// submitted through the broker as one frame; the broker charges every
// stage against the tenant's rate bucket before relaying.
func (s *BrokerSession) CallChain(ch *Chain) ([]byte, error) {
	return s.client.CallChain(ch)
}

// CallChainContext is CallChain under ctx.
func (s *BrokerSession) CallChainContext(ctx context.Context, ch *Chain) ([]byte, error) {
	return s.client.CallChainContext(ctx, ch)
}

// Client exposes the underlying NetClient (async plane, batches).
func (s *BrokerSession) Client() *NetClient { return s.client }

// Stats returns the session's admission and transport counters.
func (s *BrokerSession) Stats() BrokerSessionStats {
	return BrokerSessionStats{
		Generation:    s.gen.Load(),
		Lease:         s.lease.Load(),
		PolicyVersion: s.policyVer.Load(),
		Admits:        s.admits.Load(),
		Reattaches:    s.reattaches.Load(),
		Net:           s.client.Stats(),
	}
}

// Close tears the session down. The Registry is the caller's to close.
func (s *BrokerSession) Close() error { return s.client.Close() }
