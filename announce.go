package lrpc

// The facility's side of the name service (§3.1: "the clerk registers
// the interface with a name server"): the Registry a server announces
// into and a supervisor resolves through, the lease-renewing
// Announcement that servers keep alive for as long as they serve, and
// NetServer, the TCP export path with announcement wired in. Package
// lrpc/registry implements Registry as a replicated, leased cluster that
// survives the death of any minority of its replicas; this package never
// imports it.

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Errors of the registry plane.
var (
	// ErrLeaseExpired reports a renewal of a lease the cluster has
	// already expired (or never granted); the holder must re-register.
	ErrLeaseExpired = errors.New("lrpc: registry lease expired")
	// ErrNoSuchName reports a Resolve of a name with no live providers.
	ErrNoSuchName = errors.New("lrpc: name not registered in registry")
	// ErrRegistryUnavailable reports an operation that no configured
	// replica could complete.
	ErrRegistryUnavailable = errors.New("lrpc: no registry replica reachable")
)

// Endpoint planes, ordered by preference in TransparentBinding terms:
// in-process beats shared memory beats TCP.
const (
	PlaneInproc = "inproc"
	PlaneShm    = "shm"
	PlaneTCP    = "tcp"
)

// Endpoint is one way to reach a registered service: the transport plane
// and its plane-specific address (empty for inproc, a Unix socket path
// for shm, host:port for tcp).
type Endpoint struct {
	Plane string `json:"plane"`
	Addr  string `json:"addr"`
}

func (e Endpoint) String() string {
	if e.Addr == "" {
		return e.Plane
	}
	return e.Plane + "://" + e.Addr
}

// Registry is the name service: servers register their endpoints under
// leases and renew them, supervisors resolve names to endpoints. The
// replicated client in package lrpc/registry implements it; all methods
// must be safe for concurrent use.
type Registry interface {
	// Register binds name to eps under a fresh lease with the given TTL
	// (0 disables expiry) and returns the lease id.
	Register(name string, ttl time.Duration, eps ...Endpoint) (uint64, error)
	// Renew extends the lease's TTL from now; ErrLeaseExpired means the
	// registry already expired it and the holder must re-register.
	Renew(name string, lease uint64) error
	// Unregister withdraws the lease's binding.
	Unregister(name string, lease uint64) error
	// Resolve returns every live endpoint registered under name, or an
	// error matching ErrNoSuchName when there is none.
	Resolve(name string) ([]Endpoint, error)
}

// --- lease-renewing announcements ---

// Announcement keeps one service registration alive: it renews the
// lease on a heartbeat (TTL/3), and if the cluster expired the lease
// while we were partitioned from every leader, it re-registers under a
// fresh one. Servers hold an Announcement for as long as they serve and
// Close it on shutdown (explicit withdrawal beats waiting out the TTL).
type Announcement struct {
	rc   Registry
	name string
	ttl  time.Duration
	eps  []Endpoint

	mu     sync.Mutex
	lease  uint64
	closed bool

	stopCh chan struct{}
	wg     sync.WaitGroup

	renews      atomic.Uint64
	reregisters atomic.Uint64
}

// AnnounceEndpoint registers name→eps with a TTL and starts the renewal
// heartbeat. The initial registration is synchronous: an error means
// nothing was announced.
func AnnounceEndpoint(rc Registry, name string, ttl time.Duration, eps ...Endpoint) (*Announcement, error) {
	if ttl <= 0 {
		return nil, errors.New("lrpc: announcement TTL must be positive")
	}
	lease, err := rc.Register(name, ttl, eps...)
	if err != nil {
		return nil, err
	}
	a := &Announcement{
		rc:     rc,
		name:   name,
		ttl:    ttl,
		eps:    append([]Endpoint(nil), eps...),
		lease:  lease,
		stopCh: make(chan struct{}),
	}
	a.wg.Add(1)
	go a.renewLoop()
	return a, nil
}

// Lease returns the current lease id (it changes if an expired lease
// forced a re-registration).
func (a *Announcement) Lease() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease
}

// Renews returns how many successful heartbeat renewals have run.
func (a *Announcement) Renews() uint64 { return a.renews.Load() }

// Reregisters returns how many times an expired lease forced a fresh
// registration.
func (a *Announcement) Reregisters() uint64 { return a.reregisters.Load() }

// Close stops the heartbeat and withdraws the registration.
func (a *Announcement) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	lease := a.lease
	a.mu.Unlock()
	close(a.stopCh)
	a.wg.Wait()
	return a.rc.Unregister(a.name, lease)
}

// Abandon stops the heartbeat WITHOUT withdrawing the registration: the
// lease lingers in the registry until its TTL expires, exactly as if
// the announcing process had been SIGKILLed. Fault harnesses use it to
// simulate crashes from inside a process; production shutdown is Close.
func (a *Announcement) Abandon() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	close(a.stopCh)
	a.wg.Wait()
}

func (a *Announcement) renewLoop() {
	defer a.wg.Done()
	period := a.ttl / 3
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-a.stopCh:
			return
		case <-t.C:
		}
		a.mu.Lock()
		lease := a.lease
		closed := a.closed
		a.mu.Unlock()
		if closed {
			return
		}
		err := a.rc.Renew(a.name, lease)
		switch {
		case err == nil:
			a.renews.Add(1)
		case errors.Is(err, ErrLeaseExpired):
			// The cluster gave us up for dead; claim a fresh lease.
			nl, rerr := a.rc.Register(a.name, a.ttl, a.eps...)
			if rerr != nil {
				continue // registry unreachable; next tick retries
			}
			a.reregisters.Add(1)
			a.mu.Lock()
			if a.closed {
				// Lost the race with Close: withdraw the fresh lease too.
				a.mu.Unlock()
				_ = a.rc.Unregister(a.name, nl)
				return
			}
			a.lease = nl
			a.mu.Unlock()
		default:
			// Transient (election, partition): the TTL grace absorbs it.
		}
	}
}

// announceHook, when set, runs inside the announcers (Broker.Announce,
// NetServer.Announce) between a registration becoming resolvable and the
// announcer recording it, so a test can act in that window every run.
var announceHook atomic.Pointer[func(name string)]

func announceRegistered(name string) {
	if h := announceHook.Load(); h != nil {
		(*h)(name)
	}
}

// --- NetServer: the TCP export path with announcement wired in ---

// NetServer bundles a System with its TCP listener — the network-plane
// analogue of ShmServer — so servers can export, serve, and announce in
// one place. Announce registers the server's address in the replicated
// registry and keeps the lease renewed; Close withdraws it.
type NetServer struct {
	sys *System
	ln  *trackedListener

	mu   sync.Mutex
	anns []*Announcement

	closed atomic.Bool
	done   chan struct{}
}

// StartNetServer listens on addr (e.g. "127.0.0.1:0") and serves sys's
// exported interfaces over TCP in the background.
func StartNetServer(sys *System, addr string, opts ServeOptions) (*NetServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeNetServer(sys, ln, opts), nil
}

// ServeNetServer serves sys on an existing listener in the background.
func ServeNetServer(sys *System, ln net.Listener, opts ServeOptions) *NetServer {
	// Track accepted conns so Close can sever them — an embedded server
	// shutdown must kill in-flight connections like a process exit would,
	// or remote clients keep waiting on a zombie instead of failing over.
	tl := newTrackedListener(ln)
	ns := &NetServer{sys: sys, ln: tl, done: make(chan struct{})}
	go func() {
		defer close(ns.done)
		_ = sys.ServeNetworkOpts(tl, opts)
	}()
	return ns
}

// Addr returns the listener's address.
func (ns *NetServer) Addr() string { return ns.ln.Addr().String() }

// System returns the served System.
func (ns *NetServer) System() *System { return ns.sys }

// Announce registers name→this server's TCP address in the replicated
// registry under a lease with the given TTL and keeps it renewed until
// the server closes. Extra endpoints (e.g. the same server's shm socket)
// ride along in the same registration.
func (ns *NetServer) Announce(rc Registry, name string, ttl time.Duration, extra ...Endpoint) (*Announcement, error) {
	if ns.closed.Load() {
		return nil, ErrConnClosed
	}
	eps := append([]Endpoint{{Plane: PlaneTCP, Addr: ns.Addr()}}, extra...)
	a, err := AnnounceEndpoint(rc, name, ttl, eps...)
	if err != nil {
		return nil, err
	}
	announceRegistered(name)
	ns.mu.Lock()
	if ns.closed.Load() {
		// Close ran while this registered and took every announcement
		// but this one: withdraw it here, or it renews for a dead port.
		ns.mu.Unlock()
		a.Close()
		return nil, ErrConnClosed
	}
	ns.anns = append(ns.anns, a)
	ns.mu.Unlock()
	return a, nil
}

// Close withdraws every announcement, then stops the listener. The
// withdraw-first order means clients resolving during shutdown stop
// seeing this server before its port goes dark.
func (ns *NetServer) Close() error {
	if !ns.closed.CompareAndSwap(false, true) {
		return nil
	}
	ns.mu.Lock()
	anns := ns.anns
	ns.anns = nil
	ns.mu.Unlock()
	for _, a := range anns {
		_ = a.Close()
	}
	err := ns.ln.Close()
	ns.ln.CloseAll()
	<-ns.done
	return err
}
