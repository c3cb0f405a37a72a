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

// op drives one registry operation to completion and returns the
// replica's regOK reply: call the preferred replica, follow not-leader
// hints, sweep the rest, pause for elections, repeat until the budget
// runs out. anyReplica marks read operations whose regErrReply answers
// are only authoritative once every reachable replica agrees (a lagging
// follower may not have applied a name yet).
func (rc *Client) op(proc int, req regMsg, anyReplica bool) (regMsg, error) {
	deadline := time.Now().Add(rc.opts.OpTimeout)
	var lastErr error
	for {
		soft := false // notFound answer pending cluster agreement
		order := rc.sweepOrder()
		for k := 0; k < len(order); k++ {
			i := order[k]
			rep, err := rc.callReplica(i, proc, req)
			if err != nil {
				lastErr = err
				continue
			}
			switch rep.Status {
			case regOK:
				rc.setPref(i)
				return rep, nil
			case regNotLeader:
				lastErr = fmt.Errorf("%w (replica %s)", ErrNotLeader, rc.addrs[i])
				if j := rc.addrIndex(rep.Leader); j >= 0 && k+1 < len(order) && order[k+1] != j {
					// Chase the hint next instead of sweeping in order.
					for m := k + 1; m < len(order); m++ {
						if order[m] == j {
							order[k+1], order[m] = order[m], order[k+1]
							break
						}
					}
				}
			case regErrReply:
				err := regErrFromCode(rep.Code, rep.Err)
				if anyReplica && rep.Code == regErrNotFound {
					soft = true
					lastErr = err
					continue // another replica may be further ahead
				}
				return regMsg{}, err
			default:
				lastErr = fmt.Errorf("lrpc: registry %s: unknown reply status %d", rc.addrs[i], rep.Status)
			}
		}
		if soft {
			// Every reachable replica answered, none had the name.
			return regMsg{}, lastErr
		}
		if !time.Now().Add(sweepPause).Before(deadline) {
			if lastErr == nil {
				lastErr = errors.New("lrpc: registry operation timed out")
			}
			return regMsg{}, fmt.Errorf("%w: %w", lrpc.ErrRegistryUnavailable, lastErr)
		}
		time.Sleep(sweepPause)
	}
}

// callReplica sends req to replica i and decodes its reply. A reply that
// is not a registry document counts against that replica alone, as a
// failed call does.
func (rc *Client) callReplica(i, proc int, req regMsg) (regMsg, error) {
	c, err := rc.client(rc.addrs[i])
	if err != nil {
		return regMsg{}, err
	}
	body, _ := json.Marshal(req) // strings, integers and endpoints: cannot fail
	res, err := c.Call(proc, body)
	if err != nil {
		return regMsg{}, err
	}
	var rep regMsg
	if err := json.Unmarshal(res, &rep); err != nil {
		return regMsg{}, fmt.Errorf("lrpc: registry %s: malformed reply: %v", rc.addrs[i], err)
	}
	return rep, nil
}

func regErrFromCode(code int, msg string) error {
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
	rep, err := rc.op(regProcRegister, regMsg{Name: name, TTL: ttl, Eps: eps}, false)
	return rep.Lease, err
}

// Unregister withdraws the lease's binding cluster-wide.
func (rc *Client) Unregister(name string, lease uint64) error {
	_, err := rc.op(regProcUnregister, regMsg{Name: name, Lease: lease}, false)
	return err
}

// Renew extends the lease's TTL from now. lrpc.ErrLeaseExpired means the
// cluster already expired it; the holder must re-register.
func (rc *Client) Renew(name string, lease uint64) error {
	_, err := rc.op(regProcRenew, regMsg{Name: name, Lease: lease}, false)
	return err
}

// Resolve returns every live endpoint registered under name, in
// registration order. Any replica's applied state may answer;
// lrpc.ErrNoSuchName is returned only after every reachable replica agreed.
func (rc *Client) Resolve(name string) ([]lrpc.Endpoint, error) {
	rep, err := rc.op(regProcResolve, regMsg{Name: name}, true)
	return rep.Eps, err
}

// ReplicaStatus queries one replica directly (no leader chase) — the
// convergence probe used by fault harnesses and the failover bench.
func (rc *Client) ReplicaStatus(addr string) (*Status, error) {
	i := rc.addrIndex(addr)
	if i < 0 {
		return nil, fmt.Errorf("lrpc: %q is not a configured registry replica", addr)
	}
	rep, err := rc.callReplica(i, regProcStatus, regMsg{})
	if err != nil {
		return nil, err
	}
	if rep.Status != regOK || rep.Replica == nil {
		return nil, fmt.Errorf("lrpc: registry %s: bad status reply", addr)
	}
	return rep.Replica, nil
}
