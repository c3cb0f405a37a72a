package registry

// The client side of the replicated registry: a leader-following Client
// for registry operations. It implements lrpc.Registry, so servers
// announce through it (lrpc.AnnounceEndpoint, NetServer.Announce,
// Broker.Announce) and supervisors resolve through it
// (lrpc.SuperviseReplicated, lrpc.SuperviseBroker). The clerk of §3.1
// talked to one name server; this one talks to whichever replica is
// alive.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lrpc"
)

// sweepPause separates full sweeps of the replica set while an election
// settles.
const sweepPause = 25 * time.Millisecond

var _ lrpc.Registry = (*Client)(nil)

// ClientOpts tunes a Client. The zero value works.
type ClientOpts struct {
	// CallTimeout bounds each per-replica RPC. 0 selects 500ms.
	CallTimeout time.Duration
	// OpTimeout bounds a whole operation across redirects, replica
	// sweeps, and election waits. 0 selects 5s.
	OpTimeout time.Duration
	// Dial overrides how replica connections are made — the
	// fault-injection joint.
	Dial func(addr string) (net.Conn, error)
	// Seed seeds redial jitter; 0 selects a random seed.
	Seed int64
}

func (o *ClientOpts) fill() {
	if o.CallTimeout <= 0 {
		o.CallTimeout = 500 * time.Millisecond
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 5 * time.Second
	}
}

// Client performs registry operations against a replica set:
// writes chase the leader (following not-leader hints), reads accept any
// replica's applied state. All methods are safe for concurrent use.
type Client struct {
	addrs []string
	opts  ClientOpts

	mu      sync.Mutex
	clients map[string]*lrpc.NetClient
	pref    int // replica that last answered as leader
	closed  bool
}

// NewClient builds a client for the replica set at addrs.
func NewClient(addrs []string, opts ClientOpts) *Client {
	opts.fill()
	return &Client{
		addrs:   append([]string(nil), addrs...),
		opts:    opts,
		clients: make(map[string]*lrpc.NetClient),
	}
}

// Addrs returns the configured replica addresses.
func (rc *Client) Addrs() []string { return append([]string(nil), rc.addrs...) }

// Close drops every replica connection. In-flight operations fail over
// to lrpc.ErrRegistryUnavailable.
func (rc *Client) Close() error {
	rc.mu.Lock()
	rc.closed = true
	cs := make([]*lrpc.NetClient, 0, len(rc.clients))
	for _, c := range rc.clients {
		cs = append(cs, c)
	}
	rc.clients = make(map[string]*lrpc.NetClient)
	rc.mu.Unlock()
	for _, c := range cs {
		c.Close()
	}
	return nil
}

func (rc *Client) client(addr string) (*lrpc.NetClient, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil, lrpc.ErrConnClosed
	}
	if c, ok := rc.clients[addr]; ok {
		return c, nil
	}
	dial := rc.opts.Dial
	if dial == nil {
		dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	c, err := lrpc.NewReconnectingClient(InterfaceName, lrpc.DialOptions{
		Dial:           func() (net.Conn, error) { return dial(addr) },
		MaxInFlight:    8,
		CallTimeout:    rc.opts.CallTimeout,
		WriteTimeout:   rc.opts.CallTimeout,
		RedialAttempts: 1,
		BackoffInitial: 2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		Seed:           rc.opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	rc.clients[addr] = c
	return c, nil
}

// sweepOrder returns replica indices, preferred (last known leader)
// first.
func (rc *Client) sweepOrder() []int {
	rc.mu.Lock()
	pref := rc.pref
	rc.mu.Unlock()
	order := make([]int, 0, len(rc.addrs))
	for i := range rc.addrs {
		order = append(order, (pref+i)%len(rc.addrs))
	}
	return order
}

func (rc *Client) setPref(i int) {
	rc.mu.Lock()
	rc.pref = i
	rc.mu.Unlock()
}

func (rc *Client) addrIndex(addr string) int {
	for i, a := range rc.addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// op drives one registry operation to completion: call the preferred
// replica, follow not-leader hints, sweep the rest, pause for elections,
// repeat until the budget runs out. anyReplica marks read operations
// whose regErrReply answers are only authoritative once every reachable
// replica agrees (a lagging follower may not have applied a name yet).
func (rc *Client) op(proc int, req []byte, anyReplica bool) ([]byte, error) {
	deadline := time.Now().Add(rc.opts.OpTimeout)
	var lastErr error
	for {
		var softReply []byte // notFound answer pending cluster agreement
		order := rc.sweepOrder()
		for k := 0; k < len(order); k++ {
			i := order[k]
			body, err := rc.callReplica(i, proc, req)
			if err != nil {
				lastErr = err
				continue
			}
			if len(body) < 1 {
				lastErr = fmt.Errorf("lrpc: registry %s: empty reply", rc.addrs[i])
				continue
			}
			switch body[0] {
			case regOK:
				rc.setPref(i)
				return body[1:], nil
			case regNotLeader:
				rd := newRegReader(body[1:])
				hint := rd.str()
				lastErr = fmt.Errorf("%w (replica %s)", ErrNotLeader, rc.addrs[i])
				if j := rc.addrIndex(hint); j >= 0 && k+1 < len(order) && order[k+1] != j {
					// Chase the hint next instead of sweeping in order.
					for m := k + 1; m < len(order); m++ {
						if order[m] == j {
							order[k+1], order[m] = order[m], order[k+1]
							break
						}
					}
				}
			case regErrReply:
				rd := newRegReader(body[1:])
				code := rd.u8()
				msg := rd.str()
				err := regErrFromCode(code, msg)
				if anyReplica && code == regErrNotFound {
					softReply = body
					lastErr = err
					continue // another replica may be further ahead
				}
				return nil, err
			default:
				lastErr = fmt.Errorf("lrpc: registry %s: unknown reply status %d", rc.addrs[i], body[0])
			}
		}
		if softReply != nil {
			// Every reachable replica answered, none had the name.
			return nil, lastErr
		}
		if !time.Now().Add(sweepPause).Before(deadline) {
			if lastErr == nil {
				lastErr = errors.New("lrpc: registry operation timed out")
			}
			return nil, fmt.Errorf("%w: %w", lrpc.ErrRegistryUnavailable, lastErr)
		}
		time.Sleep(sweepPause)
	}
}

func (rc *Client) callReplica(i, proc int, req []byte) ([]byte, error) {
	c, err := rc.client(rc.addrs[i])
	if err != nil {
		return nil, err
	}
	return c.Call(proc, req)
}

func regErrFromCode(code byte, msg string) error {
	switch code {
	case regErrLeaseExpired:
		return fmt.Errorf("%w: %s", lrpc.ErrLeaseExpired, msg)
	case regErrNotFound:
		return fmt.Errorf("%w: %s", lrpc.ErrNoSuchName, msg)
	default:
		return fmt.Errorf("lrpc: registry error: %s", msg)
	}
}

// Register binds name to eps cluster-wide under a fresh lease with the
// given TTL (0 disables expiry) and returns the lease id.
func (rc *Client) Register(name string, ttl time.Duration, eps ...lrpc.Endpoint) (uint64, error) {
	var w regWriter
	w.str(name)
	w.u64(uint64(ttl))
	w.eps(eps)
	body, err := rc.op(regProcRegister, w.b, false)
	if err != nil {
		return 0, err
	}
	rd := newRegReader(body)
	lease := rd.u64()
	if rd.bad {
		return 0, errors.New("lrpc: malformed register reply")
	}
	return lease, nil
}

// Unregister withdraws the lease's binding cluster-wide.
func (rc *Client) Unregister(name string, lease uint64) error {
	var w regWriter
	w.str(name)
	w.u64(lease)
	_, err := rc.op(regProcUnregister, w.b, false)
	return err
}

// Renew extends the lease's TTL from now. lrpc.ErrLeaseExpired means the
// cluster already expired it; the holder must re-register.
func (rc *Client) Renew(name string, lease uint64) error {
	var w regWriter
	w.str(name)
	w.u64(lease)
	_, err := rc.op(regProcRenew, w.b, false)
	return err
}

// Resolve returns every live endpoint registered under name, in
// registration order. Any replica's applied state may answer;
// lrpc.ErrNoSuchName is returned only after every reachable replica agreed.
func (rc *Client) Resolve(name string) ([]lrpc.Endpoint, error) {
	var w regWriter
	w.str(name)
	body, err := rc.op(regProcResolve, w.b, true)
	if err != nil {
		return nil, err
	}
	rd := newRegReader(body)
	eps := rd.eps()
	if rd.bad {
		return nil, errors.New("lrpc: malformed resolve reply")
	}
	return eps, nil
}

// ReplicaStatus queries one replica directly (no leader chase) — the
// convergence probe used by fault harnesses and the failover bench.
func (rc *Client) ReplicaStatus(addr string) (*Status, error) {
	i := rc.addrIndex(addr)
	if i < 0 {
		return nil, fmt.Errorf("lrpc: %q is not a configured registry replica", addr)
	}
	body, err := rc.callReplica(i, regProcStatus, nil)
	if err != nil {
		return nil, err
	}
	if len(body) < 1 || body[0] != regOK {
		return nil, fmt.Errorf("lrpc: registry %s: bad status reply", addr)
	}
	rd := newRegReader(body[1:])
	blob := rd.blob()
	if rd.bad {
		return nil, errors.New("lrpc: malformed status reply")
	}
	var st Status
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
