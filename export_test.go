package lrpc

import "time"

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

// stretchIdle sets the interval after which c's background reader takes
// a free read role, so that only hand-offs move the role.
func stretchIdle(c *NetClient, d time.Duration) {
	c.mu.Lock()
	c.idle = d
	c.mu.Unlock()
}
