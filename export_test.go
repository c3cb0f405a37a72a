package lrpc

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Hooks into the NetClient's read role (DESIGN §5.19) for the tests.

// backgroundFrames is how many reply frames c's background readers have
// read, as against frames its callers read for themselves.
func backgroundFrames(c *NetClient) uint64 { return c.readerFrames.Load() }

// liveConn is c's live connection, nil while it has none.
func liveConn(c *NetClient) *clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w
}

// leading reports whether a caller holds the read role of c's live
// connection.
func leading(c *NetClient) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w != nil && c.w.role == readLeader
}

// pendingCalls is the size of c's wait table.
func pendingCalls(c *NetClient) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.wait)
}

// backgroundHolds reports whether the background reader holds the read
// role of c's live connection.
func backgroundHolds(c *NetClient) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w != nil && c.w.role == readBackground
}

// idleWatched reports whether the watch holds cc, a connection of c.
func idleWatched(c *NetClient, cc *clientConn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cc.watched
}

// watchRunning reports whether the process-wide watch ticks.
func watchRunning() bool { return netWatch.running.Load() }

// stretchIdle sets the interval after which c's background reader takes
// a free read role, so that only hand-offs move the role.
func stretchIdle(c *NetClient, d time.Duration) {
	c.mu.Lock()
	c.idle = d
	c.mu.Unlock()
}

// mapRegistry is a Registry over one map, for the tests that drive the
// announcers and supervisors without a replicated cluster (package
// registry imports this one, so these tests cannot use it). Leases never
// expire on their own.
type mapRegistry struct {
	mu    sync.Mutex
	last  uint64
	names map[string][]mapLease
}

type mapLease struct {
	id  uint64
	eps []Endpoint
}

// NewMapRegistry returns an empty in-memory Registry.
func NewMapRegistry() Registry { return &mapRegistry{names: map[string][]mapLease{}} }

func (m *mapRegistry) Register(name string, _ time.Duration, eps ...Endpoint) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.last++
	m.names[name] = append(m.names[name], mapLease{m.last, append([]Endpoint(nil), eps...)})
	return m.last, nil
}

func (m *mapRegistry) Renew(name string, lease uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !slices.ContainsFunc(m.names[name], func(l mapLease) bool { return l.id == lease }) {
		return fmt.Errorf("%w: lease %d for %q", ErrLeaseExpired, lease, name)
	}
	return nil
}

func (m *mapRegistry) Unregister(name string, lease uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.names[name] = slices.DeleteFunc(m.names[name], func(l mapLease) bool { return l.id == lease })
	return nil
}

func (m *mapRegistry) Resolve(name string) ([]Endpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var eps []Endpoint
	for _, l := range m.names[name] {
		eps = append(eps, l.eps...)
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchName, name)
	}
	return eps, nil
}
