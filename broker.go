package lrpc

// The multi-tenant broker plane: RPC as a managed system service (mRPC,
// arXiv 2304.07349) grafted onto the paper's domain-isolation argument.
// LRPC's kernel mediates between mutually distrusting domains; in this
// package, admission control and quotas historically lived per-export
// inside one process, so one misbehaving client domain could degrade
// every other. The Broker moves that mediation into a standalone,
// killable daemon:
//
//   - tenants (client domains) connect over TCP and admit themselves
//     with a hello, the first request on the connection: a call to the
//     broker's control interface carrying a tenant identity, an
//     optional token, and the service they intend to call; the broker
//     answers with its generation, a per-tenant lease, and the live
//     policy version;
//   - after admission the same server loop (connLoop, net.go) carries
//     the tenant's calls, and its route here relays them to the backend
//     and applies centralized policy first (tenantRoute.open):
//     per-tenant token-bucket rate limits and concurrency bulkheads (the
//     existing admission priority queue, one instance per tenant), so
//     an aggressor sheds with ErrQuotaExceeded while victims keep their
//     latency;
//   - policy is a versioned document (BrokerPolicy) stored in the
//     replicated registry and applied live — no tenant or backend
//     restarts; SetPolicy writes through, a poll loop picks up
//     out-of-band updates;
//   - every rejection the broker issues is a failure record with
//     executed 0 — the vouch of non-execution — so the at-most-once
//     classification of failover.go holds across the extra hop.
//
// Same-machine tenants can bypass the relay entirely: the shm bind
// handshake (shm.go) carries the same tenant identity and ShmServer
// admits or refuses it at bind time via ShmServeOptions.Admit, so a
// brokered deployment can hand trusted local tenants the fast path
// while keeping per-call quota enforcement on the TCP plane.
//
// Crash-restart survival is the design's spine: the broker holds no
// durable state. Its generation is its announcement lease in the
// replicated registry (unique per registration), policy lives in the
// registry, and tenants run SuperviseBroker (supervise_broker.go) —
// a NetClient whose dial hook re-resolves, re-dials, and re-admits, so
// a SIGKILLed broker is survived the same way a crashed server is:
// frames that never reached the wire replay, written-but-unacknowledged
// frames surface as errors, and nothing executes twice.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Errors of the broker plane.
var (
	// ErrQuotaExceeded reports a call shed by the broker's per-tenant
	// policy: the tenant's token bucket was empty or its concurrency
	// bulkhead (and wait queue) was full. The broker vouches the call
	// never reached a handler (a failure record with executed 0), so it
	// is always safe to retry — after backing off, since the quota that
	// shed it is still in force. errors.Is(err, ErrQuotaExceeded) matches
	// across the wire.
	ErrQuotaExceeded = errors.New("lrpc: tenant quota exceeded")

	// ErrTenantSuspended reports a call (or admission) rejected because
	// the live policy marks the tenant suspended. Vouched non-executed
	// like ErrQuotaExceeded; errors.Is(err, ErrTenantSuspended) matches
	// across the wire.
	ErrTenantSuspended = errors.New("lrpc: tenant suspended by policy")

	// ErrNotAdmitted reports a broker data frame for an interface the
	// tenant's HELLO did not admit it to, or a malformed admission.
	ErrNotAdmitted = errors.New("lrpc: tenant not admitted")
)

// DefaultBrokerName is the registry name a broker announces under when
// BrokerOptions.Name is empty; tenants resolve it to find the broker.
const DefaultBrokerName = "lrpc.broker"

// PlanePolicy is the Endpoint.Plane tag under which a BrokerPolicy
// document is stored in the replicated registry: the endpoint's Addr
// field carries the policy JSON, not a network address.
const PlanePolicy = "policy"

// --- control interface ---
//
// A broker connection speaks the one wire protocol (net.go) from its
// first byte. Its first request is a plain two-way call to the control
// interface, brokerCtlIface, read under MaxControlFrame. Anything else
// is refused — a failure record with executed 0 under ErrNotAdmitted's
// code, ErrBadProcedure's for an unknown procedure — or unanswered when it cannot be parsed or is
// one-way, and the connection closed. The arguments and results are
// JSON, like the policy and stats documents:
//
//	hello:     {Tenant, Token, Service, PrevGen, PrevLease}
//	           → {Gen, Lease, PolicyVersion}
//	stats:     → {info, tenants}  (brokerStatsBlob)
//	getpolicy: → the BrokerPolicy in force, or null
//	setpolicy: a BrokerPolicy → the applied version

// brokerCtlIface is the control interface every broker connection's
// first request calls.
const brokerCtlIface = "lrpc.broker.ctl"

// The control interface's procedures.
const (
	brokerProcHello = iota
	brokerProcStats
	brokerProcGetPolicy
	brokerProcSetPolicy
)

// brokerMaxIdent bounds each hello identifier (tenant, token, service).
const brokerMaxIdent = 256

// brokerHelloArgs is a hello's arguments: the tenant's identity and
// token, the one service the connection may reach, and the generation
// and lease of its previous admission, if any (reattach accounting).
type brokerHelloArgs struct {
	Tenant, Token, Service string
	PrevGen, PrevLease     uint64
}

// brokerHelloResult is an accepted hello's result: the broker's
// generation, the lease minted for this admission, and the policy
// version in force.
type brokerHelloResult struct {
	Gen, Lease, PolicyVersion uint64
}

// notAdmitted is an admission refusal, at the hello or by the policy
// gate: a refusal wrapping ErrNotAdmitted, so errors.Is matches on the
// tenant.
func notAdmitted(format string, a ...any) error {
	return refusal(fmt.Errorf("%w: %s", ErrNotAdmitted, fmt.Sprintf(format, a...)))
}

// --- policy ---

// TenantPolicy is one tenant's centralized policy entry.
type TenantPolicy struct {
	// RatePerSec is the token-bucket refill rate for this tenant's
	// calls; 0 means unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket depth. 0 selects max(1, RatePerSec).
	Burst int `json:"burst,omitempty"`
	// MaxConcurrent is the tenant's concurrency bulkhead: calls running
	// through the broker at once. 0 means unlimited.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxQueue is how many calls may wait for a bulkhead slot before
	// further arrivals shed immediately.
	MaxQueue int `json:"max_queue,omitempty"`
	// Priority orders bulkhead waiters (resilience.go): under pressure
	// low-priority tenants shed first.
	Priority Priority `json:"priority,omitempty"`
	// Suspended rejects every call (and new calls on live connections)
	// with ErrTenantSuspended until a policy update lifts it.
	Suspended bool `json:"suspended,omitempty"`
	// Token, when non-empty, must be presented at HELLO.
	Token string `json:"token,omitempty"`
}

// BrokerPolicy is the versioned policy document a broker enforces. It
// lives in the replicated registry (StoreBrokerPolicy/LoadBrokerPolicy)
// and is applied live: higher Version wins.
type BrokerPolicy struct {
	Version uint64 `json:"version"`
	// AllowUnknown admits tenants without an explicit entry under
	// Default. When false, unknown tenants are refused at HELLO.
	AllowUnknown bool `json:"allow_unknown,omitempty"`
	// Default is the policy for admitted tenants without an entry; nil
	// means unlimited.
	Default *TenantPolicy `json:"default,omitempty"`
	// Tenants maps tenant identity to its policy entry.
	Tenants map[string]TenantPolicy `json:"tenants,omitempty"`
}

// lookup resolves the effective entry for a tenant; ok=false refuses
// admission. A nil policy admits everyone, unlimited.
func (p *BrokerPolicy) lookup(tenant string) (TenantPolicy, bool) {
	if p == nil {
		return TenantPolicy{}, true
	}
	if tp, ok := p.Tenants[tenant]; ok {
		return tp, true
	}
	if !p.AllowUnknown {
		return TenantPolicy{}, false
	}
	if p.Default != nil {
		return *p.Default, true
	}
	return TenantPolicy{}, true
}

// clone deep-copies a policy so live mutation of a caller's document
// cannot race the broker's applied snapshot.
func (p *BrokerPolicy) clone() *BrokerPolicy {
	if p == nil {
		return nil
	}
	c := *p
	if p.Default != nil {
		d := *p.Default
		c.Default = &d
	}
	if p.Tenants != nil {
		c.Tenants = make(map[string]TenantPolicy, len(p.Tenants))
		for k, v := range p.Tenants {
			c.Tenants[k] = v
		}
	}
	return &c
}

// StoreBrokerPolicy publishes a policy document into the replicated
// registry under name, as a PlanePolicy endpoint whose Addr carries the
// JSON. Registrations are leased forever (ttl 0) so policy survives
// broker death; readers take the highest Version among live documents.
// It returns the registration's lease so a writer that replaces policy
// can Unregister its previous document.
func StoreBrokerPolicy(rc Registry, name string, p *BrokerPolicy) (uint64, error) {
	if p == nil {
		return 0, errors.New("lrpc: nil broker policy")
	}
	blob, err := json.Marshal(p)
	if err != nil {
		return 0, err
	}
	return rc.Register(name, 0, Endpoint{Plane: PlanePolicy, Addr: string(blob)})
}

// LoadBrokerPolicy fetches the highest-versioned policy document stored
// under name; ErrNoSuchName when none is stored.
func LoadBrokerPolicy(rc Registry, name string) (*BrokerPolicy, error) {
	eps, err := rc.Resolve(name)
	if err != nil {
		return nil, err
	}
	var best *BrokerPolicy
	for _, ep := range eps {
		if ep.Plane != PlanePolicy {
			continue
		}
		var p BrokerPolicy
		if json.Unmarshal([]byte(ep.Addr), &p) != nil {
			continue
		}
		if best == nil || p.Version > best.Version {
			q := p
			best = &q
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no policy document under %q", ErrNoSuchName, name)
	}
	return best, nil
}

// --- token bucket ---

// tokenBucket is a mutex-guarded token bucket; one per tenant, taken
// once per relayed call. The broker path is syscall-bound, so a mutex
// here is noise — the 0-lock discipline belongs to the in-process plane.
type tokenBucket struct {
	mu        sync.Mutex
	ratePerNs float64
	burst     float64
	tokens    float64
	lastNs    int64
}

func newTokenBucket(ratePerSec float64, burst int) *tokenBucket {
	if burst <= 0 {
		burst = int(ratePerSec)
		if burst < 1 {
			burst = 1
		}
	}
	return &tokenBucket{
		ratePerNs: ratePerSec / float64(time.Second),
		burst:     float64(burst),
		tokens:    float64(burst),
	}
}

// take consumes one token if available.
func (tb *tokenBucket) take(nowNs int64) bool { return tb.takeN(nowNs, 1) }

// takeN consumes n tokens, all or nothing: a relayed chain is charged
// one token per stage up front (a chain must not launder quota by
// riding one frame), and a shed chain — which executes no stage —
// drains nothing. A chain deeper than the bucket's burst can never be
// admitted; that is the bound, not a bug.
func (tb *tokenBucket) takeN(nowNs int64, n int) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.lastNs != 0 && nowNs > tb.lastNs {
		tb.tokens += float64(nowNs-tb.lastNs) * tb.ratePerNs
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.lastNs = nowNs
	if tb.tokens < float64(n) {
		return false
	}
	tb.tokens -= float64(n)
	return true
}

// --- tenant state ---

// tenantEffective is one tenant's applied policy: swapped atomically as
// a unit on policy updates, so a relayed call sees one coherent
// (bucket, bulkhead, suspension) triple. In-flight calls exit against
// the bulkhead they entered.
type tenantEffective struct {
	pol       TenantPolicy
	bucket    *tokenBucket // nil: unlimited rate
	adm       *admission   // nil: unlimited concurrency
	suspended bool
}

// tenantState aggregates one tenant's connections: effective policy and
// striped lifetime counters (stripe = connection, so concurrent
// connections of one tenant do not serialize on a counter line).
type tenantState struct {
	name string
	eff  atomic.Pointer[tenantEffective]

	conns    atomic.Int64
	inflight atomic.Int64

	admits           stripedUint64
	reattaches       stripedUint64
	calls            stripedUint64
	oneWays          stripedUint64
	errorsN          stripedUint64
	quotaSheds       stripedUint64
	suspendedRejects stripedUint64
	bulkRejects      stripedUint64
	bytesIn          stripedUint64
	bytesOut         stripedUint64
}

func newTenantEffective(pol TenantPolicy) *tenantEffective {
	eff := &tenantEffective{pol: pol, suspended: pol.Suspended}
	if pol.RatePerSec > 0 {
		eff.bucket = newTokenBucket(pol.RatePerSec, pol.Burst)
	}
	if pol.MaxConcurrent > 0 {
		q := pol.MaxQueue
		if q < 0 {
			q = 0
		}
		eff.adm = &admission{cfg: AdmissionConfig{
			MaxConcurrent: pol.MaxConcurrent, MaxQueue: q}}
	}
	return eff
}

// TenantSnapshot is one tenant's point-in-time view for the snapshot
// and Prometheus planes (and `lrpcstat tenants`).
type TenantSnapshot struct {
	Tenant    string `json:"tenant"`
	Suspended bool   `json:"suspended,omitempty"`

	RatePerSec    float64 `json:"rate_per_sec,omitempty"`
	MaxConcurrent int     `json:"max_concurrent,omitempty"`
	MaxQueue      int     `json:"max_queue,omitempty"`
	Priority      int     `json:"priority,omitempty"`

	Conns    int64 `json:"conns"`
	InFlight int64 `json:"in_flight"`

	Admits           uint64 `json:"admits"`
	Reattaches       uint64 `json:"reattaches"`
	Calls            uint64 `json:"calls"`
	OneWays          uint64 `json:"one_ways,omitempty"`
	Errors           uint64 `json:"errors,omitempty"`
	QuotaSheds       uint64 `json:"quota_sheds"`
	SuspendedRejects uint64 `json:"suspended_rejects,omitempty"`
	BulkRejects      uint64 `json:"bulk_rejects,omitempty"`
	BytesIn          uint64 `json:"bytes_in"`
	BytesOut         uint64 `json:"bytes_out"`
}

// BrokerInfo is the broker-level half of a stats snapshot.
type BrokerInfo struct {
	Generation    uint64 `json:"generation"`
	PolicyVersion uint64 `json:"policy_version"`
	Tenants       int    `json:"tenants"`
	Addr          string `json:"addr,omitempty"`
}

// brokerStatsBlob is the stats procedure's JSON result.
type brokerStatsBlob struct {
	Info    BrokerInfo       `json:"info"`
	Tenants []TenantSnapshot `json:"tenants"`
}

// --- broker ---

// BrokerUpstream is a backend caller the broker relays admitted frames
// through: *NetClient and *ReplicatedSupervisor both satisfy it, and
// LocalUpstream adapts an in-process Binding.
type BrokerUpstream interface {
	CallContext(ctx context.Context, proc int, args []byte) ([]byte, error)
	Close() error
}

// brokerChainUpstream is the optional chain-relay capability of an
// upstream: a relayed chain executes in the backend's domain, so the
// upstream must speak the chain plane (*NetClient forwards the LBC1
// frame; LocalUpstream runs the executor in-process). Upstreams without
// it refuse chains with a non-execution vouch.
type brokerChainUpstream interface {
	CallChainContext(ctx context.Context, ch *Chain) ([]byte, error)
}

// localUpstream adapts an in-process Binding (which holds no transport
// to close) to the BrokerUpstream surface.
type localUpstream struct{ b *Binding }

func (u localUpstream) CallContext(ctx context.Context, proc int, args []byte) ([]byte, error) {
	return u.b.CallContext(ctx, proc, args)
}
func (u localUpstream) CallChainContext(ctx context.Context, ch *Chain) ([]byte, error) {
	return u.b.CallChainContext(ctx, ch)
}
func (u localUpstream) Close() error { return nil }

// LocalUpstream wraps an in-process binding as a broker upstream — the
// single-process deployment where broker and backend share an address
// space (and the shape the broker experiment measures).
func LocalUpstream(b *Binding) BrokerUpstream { return localUpstream{b: b} }

// BrokerOptions tunes a Broker. The zero value selects defaults.
type BrokerOptions struct {
	// Name is the registry name the broker announces under; tenants
	// resolve it. Empty selects DefaultBrokerName.
	Name string
	// PolicyName is the registry name of the policy document. Empty
	// selects Name + ".policy".
	PolicyName string
	// MaxInFlight bounds concurrently relayed calls per tenant
	// connection (the same backpressure as ServeOptions). 0 selects 64.
	MaxInFlight int
	// WriteTimeout bounds each reply write. 0 selects 10s.
	WriteTimeout time.Duration
	// ForwardTimeout bounds one relayed upstream call. 0 selects 10s.
	ForwardTimeout time.Duration
	// QueueTimeout bounds how long a call may wait for a bulkhead slot
	// before shedding with ErrQuotaExceeded. 0 selects 250ms.
	QueueTimeout time.Duration
	// MaxControlFrame bounds a connection's first request, the one read
	// before the peer is admitted (pushed policy documents ride in it).
	// 0 selects 64 KiB.
	MaxControlFrame int
	// PolicyPoll is the interval at which an announced broker re-reads
	// the registry policy document, picking up out-of-band updates.
	// 0 selects 2s; negative disables polling.
	PolicyPoll time.Duration
	// Upstream lazily resolves a backend caller for a service the
	// broker has no explicit upstream for (SetUpstream). nil means
	// unknown services are rejected.
	Upstream func(service string) (BrokerUpstream, error)
	// Seed seeds the broker generation for registry-less deployments;
	// 0 selects a random seed. Announce overrides the generation with
	// the announcement lease.
	Seed int64
	// Tracer receives TraceShed events for policy rejections, and the
	// server loop's TraceOneWayDrop and TraceWriteFail events.
	Tracer Tracer
}

func (o *BrokerOptions) fill() {
	if o.Name == "" {
		o.Name = DefaultBrokerName
	}
	if o.PolicyName == "" {
		o.PolicyName = o.Name + ".policy"
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = 10 * time.Second
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 250 * time.Millisecond
	}
	if o.MaxControlFrame <= 0 {
		o.MaxControlFrame = 64 << 10
	}
	if o.PolicyPoll == 0 {
		o.PolicyPoll = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = rand.Int63()
	}
}

// upstreamEntry resolves a service's upstream exactly once, outside the
// broker lock (resolution may dial).
type upstreamEntry struct {
	once sync.Once
	up   BrokerUpstream
	err  error
}

// Broker is the multi-tenant RPC service daemon. Construct with
// NewBroker, attach upstreams (SetUpstream or BrokerOptions.Upstream),
// optionally Announce into a replicated registry, then Serve/Start.
type Broker struct {
	opts BrokerOptions

	gen      atomic.Uint64 // broker generation (announcement lease)
	leaseCtr atomic.Uint64 // per-generation tenant lease mint
	connCtr  atomic.Uint32 // counter stripe assignment

	// announcing is write-held by Announce from registration until the
	// announced generation is stored; a hello reads the generation under
	// it, so one that found the broker through its fresh registry entry
	// is admitted under that entry's generation, not the one before.
	announcing sync.RWMutex

	policy  atomic.Pointer[BrokerPolicy]
	version atomic.Uint64 // applied policy version

	mu          sync.Mutex
	tenants     map[string]*tenantState
	ups         map[string]*upstreamEntry
	ln          *trackedListener
	ann         *Announcement
	rc          Registry
	policyLease uint64 // registry lease of the policy doc we wrote
	pollStop    chan struct{}

	closed   atomic.Bool
	wg       sync.WaitGroup // tenant connections
	serveErr chan error
}

// NewBroker builds a broker with no policy (admit everyone, unlimited)
// and no upstreams.
func NewBroker(opts BrokerOptions) *Broker {
	opts.fill()
	bk := &Broker{
		opts:     opts,
		tenants:  map[string]*tenantState{},
		ups:      map[string]*upstreamEntry{},
		serveErr: make(chan error, 1),
	}
	bk.gen.Store(uint64(rand.New(rand.NewSource(opts.Seed)).Int63()) | 1)
	return bk
}

// Name returns the broker's announce name.
func (bk *Broker) Name() string { return bk.opts.Name }

// Generation returns the broker's current generation (the announcement
// lease once Announce has run).
func (bk *Broker) Generation() uint64 { return bk.gen.Load() }

// PolicyVersion returns the applied policy version.
func (bk *Broker) PolicyVersion() uint64 { return bk.version.Load() }

// SetUpstream installs the backend caller for one service name.
func (bk *Broker) SetUpstream(service string, up BrokerUpstream) {
	e := &upstreamEntry{up: up}
	e.once.Do(func() {})
	bk.mu.Lock()
	bk.ups[service] = e
	bk.mu.Unlock()
}

// upstreamFor resolves the backend caller for a service, lazily through
// BrokerOptions.Upstream when no explicit one is installed.
func (bk *Broker) upstreamFor(service string) (BrokerUpstream, error) {
	bk.mu.Lock()
	e, ok := bk.ups[service]
	if !ok {
		if bk.opts.Upstream == nil {
			bk.mu.Unlock()
			return nil, fmt.Errorf("%w: no upstream for %q", ErrNotExported, service)
		}
		e = &upstreamEntry{}
		bk.ups[service] = e
	}
	bk.mu.Unlock()
	e.once.Do(func() { e.up, e.err = bk.opts.Upstream(service) })
	if e.err != nil {
		// Resolution failed; let a later call try afresh.
		bk.mu.Lock()
		if bk.ups[service] == e {
			delete(bk.ups, service)
		}
		bk.mu.Unlock()
	}
	return e.up, e.err
}

// SetPolicy applies a policy document live — existing tenant
// connections see the new buckets, bulkheads, and suspensions on their
// next call — and, when the broker is announced into a registry, writes
// the document through so it survives broker death. Version 0 is
// auto-assigned (current+1).
func (bk *Broker) SetPolicy(p *BrokerPolicy) error {
	if p == nil {
		return errors.New("lrpc: nil broker policy")
	}
	p = p.clone()
	if p.Version == 0 {
		p.Version = bk.version.Load() + 1
	}
	bk.applyPolicy(p)
	bk.mu.Lock()
	rc := bk.rc
	prevLease := bk.policyLease
	bk.mu.Unlock()
	if rc == nil {
		return nil
	}
	lease, err := StoreBrokerPolicy(rc, bk.opts.PolicyName, p)
	if err != nil {
		return fmt.Errorf("lrpc: broker policy applied locally but not stored: %w", err)
	}
	bk.mu.Lock()
	bk.policyLease = lease
	bk.mu.Unlock()
	if prevLease != 0 {
		_ = rc.Unregister(bk.opts.PolicyName, prevLease)
	}
	return nil
}

// Policy returns the applied policy document (a copy), nil when none.
func (bk *Broker) Policy() *BrokerPolicy { return bk.policy.Load().clone() }

// applyPolicy installs a policy snapshot and re-derives every known
// tenant's effective state. Suspending a tenant revokes its bulkhead so
// parked waiters fail immediately instead of draining the queue first.
func (bk *Broker) applyPolicy(p *BrokerPolicy) {
	bk.policy.Store(p)
	bk.version.Store(p.Version)
	bk.mu.Lock()
	states := make([]*tenantState, 0, len(bk.tenants))
	for _, ts := range bk.tenants {
		states = append(states, ts)
	}
	bk.mu.Unlock()
	for _, ts := range states {
		pol, ok := p.lookup(ts.name)
		if !ok {
			// The tenant lost its entry: treat as suspension; its next
			// HELLO will be refused.
			pol.Suspended = true
		}
		eff := newTenantEffective(pol)
		old := ts.eff.Swap(eff)
		if eff.suspended && old != nil && old.adm != nil {
			old.adm.revoke()
		}
	}
}

// tenant returns (creating on first admission) the named tenant state.
func (bk *Broker) tenant(name string) *tenantState {
	bk.mu.Lock()
	ts, ok := bk.tenants[name]
	if !ok {
		ts = &tenantState{name: name}
		pol, _ := bk.policy.Load().lookup(name)
		ts.eff.Store(newTenantEffective(pol))
		bk.tenants[name] = ts
	}
	bk.mu.Unlock()
	return ts
}

// Announce registers the broker's address in the replicated registry
// under its Name and adopts the announcement lease as the broker
// generation — a fresh process gets a fresh lease, so tenants detect
// restarts by generation change. It also loads the stored policy
// document (if any, and newer than the applied one) and starts the
// policy poll loop. Call before Serve so no tenant admits under the
// pre-announce generation. A broker that already serves holds every
// hello from the registration until the generation is stored, so a
// registry that is slow to register (an election: up to a
// registry.Client's OpTimeout) stalls admission as long, and a tenant
// whose HelloTimeout is shorter fails its hello and retries.
func (bk *Broker) Announce(rc Registry, ttl time.Duration, addr string) (*Announcement, error) {
	bk.announcing.Lock()
	a, err := AnnounceEndpoint(rc, bk.opts.Name, ttl, Endpoint{Plane: PlaneTCP, Addr: addr})
	if err != nil {
		bk.announcing.Unlock()
		return nil, err
	}
	announceRegistered(bk.opts.Name)
	bk.gen.Store(a.Lease())
	bk.announcing.Unlock()
	bk.mu.Lock()
	bk.ann = a
	bk.rc = rc
	stop := make(chan struct{})
	bk.pollStop = stop
	bk.mu.Unlock()
	if p, perr := LoadBrokerPolicy(rc, bk.opts.PolicyName); perr == nil && p.Version > bk.version.Load() {
		bk.applyPolicy(p)
	}
	if bk.opts.PolicyPoll > 0 {
		bk.wg.Add(1)
		go bk.pollPolicy(rc, stop)
	}
	return a, nil
}

// pollPolicy picks up policy documents written by other processes
// (StoreBrokerPolicy straight into the registry): live update without
// restarting the broker, tenants, or backends.
func (bk *Broker) pollPolicy(rc Registry, stop chan struct{}) {
	defer bk.wg.Done()
	t := time.NewTicker(bk.opts.PolicyPoll)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if p, err := LoadBrokerPolicy(rc, bk.opts.PolicyName); err == nil && p.Version > bk.version.Load() {
			bk.applyPolicy(p)
		}
	}
}

// Start listens on addr and serves in the background.
func (bk *Broker) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { bk.serveErr <- bk.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Serve accepts tenant and admin connections until the listener fails
// or the broker is closed.
func (bk *Broker) Serve(ln net.Listener) error {
	defer holdPort(ln.Addr())()
	tl := newTrackedListener(ln)
	bk.mu.Lock()
	if bk.closed.Load() {
		bk.mu.Unlock()
		tl.Close()
		return ErrConnClosed
	}
	bk.ln = tl
	bk.mu.Unlock()
	for {
		conn, err := tl.Accept()
		if err != nil {
			return err
		}
		bk.wg.Add(1)
		go bk.handleConn(conn)
	}
}

// Close shuts the broker down cleanly: withdraw the announcement (so
// resolving tenants stop seeing it before the port goes dark), sever
// connections, drain relays, release upstreams.
func (bk *Broker) Close() error { return bk.shutdown(false) }

// Abort simulates a broker crash from inside the process: connections
// are severed and the listener dies, but the announcement is NOT
// withdrawn — the registration lingers until its lease expires, exactly
// as after a SIGKILL. Fault harnesses and the broker experiment use it;
// production shutdown is Close.
func (bk *Broker) Abort() { _ = bk.shutdown(true) }

func (bk *Broker) shutdown(abort bool) error {
	if !bk.closed.CompareAndSwap(false, true) {
		return nil
	}
	bk.mu.Lock()
	ann, ln, stop := bk.ann, bk.ln, bk.pollStop
	bk.ann, bk.pollStop = nil, nil
	ups := bk.ups
	bk.ups = map[string]*upstreamEntry{}
	bk.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	if ann != nil {
		if abort {
			ann.Abandon()
		} else {
			_ = ann.Close()
		}
	}
	if ln != nil {
		_ = ln.Close()
		ln.CloseAll()
	}
	bk.wg.Wait()
	for _, e := range ups {
		if e.up != nil {
			_ = e.up.Close()
		}
	}
	return nil
}

// Snapshot returns the broker-level info and per-tenant counters,
// sorted by tenant name.
func (bk *Broker) Snapshot() (BrokerInfo, []TenantSnapshot) {
	bk.mu.Lock()
	states := make([]*tenantState, 0, len(bk.tenants))
	for _, ts := range bk.tenants {
		states = append(states, ts)
	}
	var addr string
	if bk.ln != nil {
		addr = bk.ln.Addr().String()
	}
	bk.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].name < states[j].name })
	out := make([]TenantSnapshot, 0, len(states))
	for _, ts := range states {
		out = append(out, ts.snapshot())
	}
	return BrokerInfo{
		Generation:    bk.gen.Load(),
		PolicyVersion: bk.version.Load(),
		Tenants:       len(out),
		Addr:          addr,
	}, out
}

func (ts *tenantState) snapshot() TenantSnapshot {
	eff := ts.eff.Load()
	sn := TenantSnapshot{
		Tenant:           ts.name,
		Conns:            ts.conns.Load(),
		InFlight:         ts.inflight.Load(),
		Admits:           ts.admits.sum(),
		Reattaches:       ts.reattaches.sum(),
		Calls:            ts.calls.sum(),
		OneWays:          ts.oneWays.sum(),
		Errors:           ts.errorsN.sum(),
		QuotaSheds:       ts.quotaSheds.sum(),
		SuspendedRejects: ts.suspendedRejects.sum(),
		BulkRejects:      ts.bulkRejects.sum(),
		BytesIn:          ts.bytesIn.sum(),
		BytesOut:         ts.bytesOut.sum(),
	}
	if eff != nil {
		sn.Suspended = eff.suspended
		sn.RatePerSec = eff.pol.RatePerSec
		sn.MaxConcurrent = eff.pol.MaxConcurrent
		sn.MaxQueue = eff.pol.MaxQueue
		sn.Priority = int(eff.pol.Priority)
	}
	return sn
}

// WriteMetricsText renders the per-tenant counters in Prometheus text
// exposition format — the broker-plane extension of the package's
// System.WriteMetricsText surface.
func (bk *Broker) WriteMetricsText(w io.Writer) error {
	info, tenants := bk.Snapshot()
	if _, err := fmt.Fprintf(w,
		"# TYPE lrpc_broker_generation gauge\nlrpc_broker_generation %d\n"+
			"# TYPE lrpc_broker_policy_version gauge\nlrpc_broker_policy_version %d\n",
		info.Generation, info.PolicyVersion); err != nil {
		return err
	}
	for _, t := range tenants {
		esc := promLabelEscape(t.Tenant)
		susp := 0
		if t.Suspended {
			susp = 1
		}
		if _, err := fmt.Fprintf(w,
			"lrpc_tenant_calls_total{tenant=\"%s\"} %d\n"+
				"lrpc_tenant_one_ways_total{tenant=\"%s\"} %d\n"+
				"lrpc_tenant_errors_total{tenant=\"%s\"} %d\n"+
				"lrpc_tenant_quota_sheds_total{tenant=\"%s\"} %d\n"+
				"lrpc_tenant_suspended_rejects_total{tenant=\"%s\"} %d\n"+
				"lrpc_tenant_admits_total{tenant=\"%s\"} %d\n"+
				"lrpc_tenant_reattaches_total{tenant=\"%s\"} %d\n"+
				"lrpc_tenant_bytes_in_total{tenant=\"%s\"} %d\n"+
				"lrpc_tenant_bytes_out_total{tenant=\"%s\"} %d\n"+
				"lrpc_tenant_in_flight{tenant=\"%s\"} %d\n"+
				"lrpc_tenant_conns{tenant=\"%s\"} %d\n"+
				"lrpc_tenant_suspended{tenant=\"%s\"} %d\n",
			esc, t.Calls, esc, t.OneWays, esc, t.Errors, esc, t.QuotaSheds,
			esc, t.SuspendedRejects, esc, t.Admits, esc, t.Reattaches,
			esc, t.BytesIn, esc, t.BytesOut, esc, t.InFlight, esc, t.Conns,
			esc, susp); err != nil {
			return err
		}
	}
	return nil
}

// promLabelEscape keeps hostile tenant names from breaking the
// exposition format (quotes and newlines are the dangerous bytes).
func promLabelEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			out = append(out, '\\', c)
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// --- connection handling ---

// handleConn serves one broker connection on the one server loop. Its
// first request decides what the connection is: a hello admits it as a
// tenant's and the loop carries its calls; an admin request is answered
// and the connection closed. The first request must arrive promptly.
func (bk *Broker) handleConn(conn net.Conn) {
	defer bk.wg.Done()
	cc := &countingConn{Conn: conn, r: connReader(conn)}
	rt := &tenantRoute{bk: bk}
	l := newConnLoop(cc, rt, ServeOptions{MaxInFlight: bk.opts.MaxInFlight, WriteTimeout: bk.opts.WriteTimeout})
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	req, chain, err := l.next(bk.opts.MaxControlFrame)
	if err != nil {
		conn.Close() // not a request: nothing to answer
		return
	}
	conn.SetReadDeadline(time.Time{})
	var res []byte
	switch {
	case req.name != brokerCtlIface || req.oneWay || req.dir != 0 || chain:
		// Never relay an unadmitted frame.
		err = notAdmitted("the first request must be a two-way call to %q", brokerCtlIface)
	case req.proc == brokerProcHello:
		res, err = bk.admit(rt, req.args)
	default:
		res, err = bk.admin(req.proc, req.args)
	}
	if err != nil {
		if !req.oneWay { // a one-way request has no reply path
			l.failReply(req, err)
		}
		l.shut()
		return
	}
	l.reply(req, 0, res, nil)
	if rt.ts == nil {
		l.shut() // one admin request per connection
		return
	}
	// The tenant's byte counts start after the hello's reply: admission
	// traffic is the broker's, not the tenant's.
	cc.ts, cc.stripe = rt.ts, rt.stripe
	rt.ts.conns.Add(1)
	defer rt.ts.conns.Add(-1)
	l.serve()
}

// admit runs a hello: identifiers bounded, the tenant known to the
// policy, the token matched. An accepted hello fills in rt's tenant,
// service and counter stripe. Suspended tenants still admit: suspension
// is live policy, and a connection held open hears the un-suspension
// without re-dialing. Every call meanwhile rejects with
// ErrTenantSuspended.
func (bk *Broker) admit(rt *tenantRoute, args []byte) ([]byte, error) {
	var h brokerHelloArgs
	if err := json.Unmarshal(args, &h); err != nil {
		return nil, notAdmitted("malformed hello: %v", err)
	}
	if h.Tenant == "" || max(len(h.Tenant), len(h.Token), len(h.Service)) > brokerMaxIdent {
		return nil, notAdmitted("malformed hello: the tenant must be 1 to %d bytes, the token and service at most %d",
			brokerMaxIdent, brokerMaxIdent)
	}
	pol, ok := bk.policy.Load().lookup(h.Tenant)
	if !ok {
		return nil, notAdmitted("unknown tenant %q", h.Tenant)
	}
	if pol.Token != "" && pol.Token != h.Token {
		return nil, notAdmitted("bad token for tenant %q", h.Tenant)
	}
	ts := bk.tenant(h.Tenant)
	stripe := bk.connCtr.Add(1)
	bk.announcing.RLock()
	gen := bk.gen.Load()
	bk.announcing.RUnlock()
	ts.admits.add(stripe, 1)
	if h.PrevGen != 0 && h.PrevGen != gen {
		// Lease re-admission on a new broker generation: the tenant
		// survived a broker restart and reattached.
		ts.reattaches.add(stripe, 1)
	}
	rt.ts, rt.service, rt.stripe = ts, h.Service, stripe
	return json.Marshal(brokerHelloResult{Gen: gen, Lease: bk.leaseCtr.Add(1), PolicyVersion: bk.version.Load()})
}

// admin answers one admin request: the stats snapshot, or the policy
// document read or replaced.
func (bk *Broker) admin(proc int, args []byte) ([]byte, error) {
	switch proc {
	case brokerProcStats:
		info, tenants := bk.Snapshot()
		return json.Marshal(brokerStatsBlob{Info: info, Tenants: tenants})
	case brokerProcGetPolicy:
		return json.Marshal(bk.policy.Load())
	case brokerProcSetPolicy:
		var p BrokerPolicy
		if err := json.Unmarshal(args, &p); err != nil {
			return nil, refusal(fmt.Errorf("lrpc: bad policy document: %v", err))
		}
		if err := bk.SetPolicy(&p); err != nil {
			return nil, err
		}
		return json.Marshal(bk.version.Load())
	}
	return nil, refusal(fmt.Errorf("%w: no broker control procedure %d", ErrBadProcedure, proc))
}

// countingConn counts every byte an admitted tenant connection carries —
// drained payloads and refused frames included — into the tenant's
// BytesIn and BytesOut. Until admission ts is nil and nothing counts. It
// reads through conn's probing reader, so a broker connection's reads
// probe as a served one's do.
type countingConn struct {
	net.Conn
	r      io.Reader // connReader(Conn)
	ts     *tenantState
	stripe uint32
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.ts != nil {
		c.ts.bytesIn.add(c.stripe, uint64(n))
	}
	return n, err
}

// Write counts before writing, so a reply is on the books by the time
// the tenant can read it.
func (c *countingConn) Write(p []byte) (int, error) {
	if c.ts != nil {
		c.ts.bytesOut.add(c.stripe, uint64(len(p)))
	}
	return c.Conn.Write(p)
}

// tenantRoute is the broker's route for one admitted tenant connection:
// the centralized policy gate, opened on the server loop before a
// goroutine is spent, and an upstream call as the target.
type tenantRoute struct {
	bk      *Broker
	ts      *tenantState
	service string
	stripe  uint32
}

func (r *tenantRoute) trace(kind TraceKind, iface string, err error) {
	if t := r.bk.opts.Tracer; t != nil {
		t.TraceEvent(TraceEvent{Kind: kind, Iface: iface, Err: err})
	}
}

// shed reports a policy rejection as the tenant's TraceShed event.
func (r *tenantRoute) shed(err error) { r.trace(TraceShed, "tenant/"+r.ts.name, err) }

// open is the policy gate, in order: bulk refusal, service confinement,
// suspension, the token bucket charged per chain stage, the bulkhead,
// the upstream, and a chain-capable upstream for a chain. Every refusal
// carries the non-execution vouch; a relayed call holds its bulkhead
// ticket and the in-flight gauge until the target's done.
func (r *tenantRoute) open(req *request) (target, error) {
	ts, stripe := r.ts, r.stripe
	// Bulk frames are not relayed: the payload streams outside the frame
	// envelope and splicing it through the broker would buffer it twice.
	// The loop drains it, so the stream stays framed.
	if req.dir != 0 {
		ts.bulkRejects.add(stripe, 1)
		return nil, notAdmitted("bulk calls are not relayed; bind the backend's bulk plane directly")
	}
	// The HELLO admitted one service; frames for anything else are
	// refused (a tenant cannot widen its own admission).
	if r.service != "" && req.name != r.service {
		return nil, notAdmitted("tenant %q is admitted to %q, not %q", ts.name, r.service, req.name)
	}
	eff := ts.eff.Load()
	if eff.suspended {
		ts.suspendedRejects.add(stripe, 1)
		r.shed(ErrTenantSuspended)
		return nil, refusal(fmt.Errorf("%w: tenant %q", ErrTenantSuspended, ts.name))
	}
	// Rate gate: a chain is charged one token per stage, all or nothing —
	// N dependent calls in one frame cost what N frames would, and a shed
	// chain (nothing executed, vouched) drains no tokens at all.
	cost := max(1, len(req.stages))
	if eff.bucket != nil && !eff.bucket.takeN(time.Now().UnixNano(), cost) {
		ts.quotaSheds.add(stripe, 1)
		r.shed(ErrQuotaExceeded)
		return nil, refusal(fmt.Errorf("%w: tenant %q over its %g calls/sec rate",
			ErrQuotaExceeded, ts.name, eff.pol.RatePerSec))
	}
	if eff.adm != nil {
		deadline := time.Now().Add(r.bk.opts.QueueTimeout)
		switch aerr := eff.adm.enter(eff.pol.Priority, deadline, nil); {
		case aerr == nil:
		case errors.Is(aerr, ErrRevoked):
			ts.suspendedRejects.add(stripe, 1)
			return nil, refusal(fmt.Errorf("%w: tenant %q", ErrTenantSuspended, ts.name))
		default: // ErrOverload: the bulkhead is full
			ts.quotaSheds.add(stripe, 1)
			r.shed(ErrQuotaExceeded)
			return nil, refusal(fmt.Errorf("%w: tenant %q at its %d-call concurrency bulkhead",
				ErrQuotaExceeded, ts.name, eff.pol.MaxConcurrent))
		}
	}
	t := &relay{r: r, adm: eff.adm}
	up, err := r.bk.upstreamFor(req.name)
	if err != nil {
		t.exit()
		return nil, refusal(err)
	}
	t.up = up
	if req.stages != nil {
		// A chain needs a chain-capable upstream (NetClient and
		// LocalUpstream both are); anything else refuses before a single
		// stage runs.
		cu, capable := up.(brokerChainUpstream)
		if !capable {
			t.exit()
			return nil, notAdmitted("upstream for %q cannot execute chains", req.name)
		}
		t.chainUp = cu
	}
	ts.inflight.Add(1)
	return t, nil
}

// relay is an admitted request's upstream call.
type relay struct {
	r       *tenantRoute
	adm     *admission // the bulkhead entered; nil when unlimited
	up      BrokerUpstream
	chainUp brokerChainUpstream
}

func (t *relay) exit() {
	if t.adm != nil {
		t.adm.exit()
	}
}

func (t *relay) serve(req *request) ([]byte, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), t.r.bk.opts.ForwardTimeout)
	var res []byte
	var err error
	if req.stages != nil {
		res, err = t.chainUp.CallChainContext(ctx, &Chain{stages: req.stages})
	} else {
		res, err = t.up.CallContext(ctx, req.proc, req.args)
	}
	cancel()
	ts, stripe := t.r.ts, t.r.stripe
	if req.oneWay {
		ts.oneWays.add(stripe, 1)
		return nil, nil, nil
	}
	ts.calls.add(stripe, 1)
	if err == nil {
		if len(res) > MaxOOBSize {
			ts.errorsN.add(stripe, 1)
		}
		return res, nil, nil
	}
	// A relayed *RemoteError or *ChainError crosses verbatim
	// (appendFailure): the tenant's at-most-once classification needs the
	// backend's vouch intact. A failure that provably never reached the
	// backend keeps the broker's vouch; anything else — including a
	// broker→backend connection lost with the frame written — is relayed
	// as executed, because the backend may have executed it.
	if !errors.As(err, new(*RemoteError)) && !errors.As(err, new(*ChainError)) && !notExecuted(err) {
		err = fmt.Errorf("lrpc: broker upstream: %w", err)
	}
	if !notExecuted(err) {
		ts.errorsN.add(stripe, 1)
	}
	return nil, nil, err
}

// done returns the tenant's gauge and bulkhead ticket. The loop calls it
// before any reply is written: a tenant holding its reply must not still
// count as in flight, or its next back-to-back call is shed at
// MaxConcurrent: 1.
func (t *relay) done() {
	t.r.ts.inflight.Add(-1)
	t.exit()
}

// --- client-side control calls ---

// brokerCall makes one control call on a raw broker connection: one
// request frame written, one reply frame read. Status 0 returns the
// results; a failure decodes as on any call (replyError), to a
// *RemoteError carrying the broker's text, vouch and sentinel.
func brokerCall(conn net.Conn, proc int, args []byte, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(appendRequestFrame(nil, 1, brokerCtlIface, uint32(proc), args, nil)); err != nil {
		return nil, err
	}
	frame, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	if len(frame) < 9 {
		return nil, errors.New("lrpc: short broker control reply")
	}
	if status := frame[8]; status != 0 {
		return nil, replyError(status, frame[9:], false)
	}
	return frame[9:], nil
}

// brokerHello admits this connection as a tenant's.
func brokerHello(conn net.Conn, h brokerHelloArgs, timeout time.Duration) (brokerHelloResult, error) {
	args, _ := json.Marshal(h) // strings and integers: cannot fail
	res, err := brokerCall(conn, brokerProcHello, args, timeout)
	var r brokerHelloResult
	if err == nil {
		err = json.Unmarshal(res, &r)
	}
	return r, err
}

// brokerAdmin dials addr for one admin request and decodes its JSON
// result into out.
func brokerAdmin(addr string, proc int, args []byte, out any, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	res, err := brokerCall(conn, proc, args, timeout)
	if err != nil {
		return err
	}
	return json.Unmarshal(res, out)
}

// BrokerStats fetches a broker's info and per-tenant snapshot over its
// control interface (the `lrpcstat tenants` backend).
func BrokerStats(addr string, timeout time.Duration) (BrokerInfo, []TenantSnapshot, error) {
	var st brokerStatsBlob
	if err := brokerAdmin(addr, brokerProcStats, nil, &st, timeout); err != nil {
		return BrokerInfo{}, nil, err
	}
	return st.Info, st.Tenants, nil
}

// FetchBrokerPolicy fetches the broker's applied policy document.
func FetchBrokerPolicy(addr string, timeout time.Duration) (*BrokerPolicy, error) {
	var p *BrokerPolicy
	if err := brokerAdmin(addr, brokerProcGetPolicy, nil, &p, timeout); err != nil {
		return nil, err
	}
	return p, nil
}

// PushBrokerPolicy applies a policy document to a live broker over its
// control interface (the broker also writes it through to the registry
// when announced). It returns the applied version.
func PushBrokerPolicy(addr string, p *BrokerPolicy, timeout time.Duration) (uint64, error) {
	blob, err := json.Marshal(p)
	if err != nil {
		return 0, err
	}
	var version uint64
	if err := brokerAdmin(addr, brokerProcSetPolicy, blob, &version, timeout); err != nil {
		return 0, err
	}
	return version, nil
}
