//go:build linux

package lrpc

import (
	"fmt"
	"testing"
	"time"
)

// Hooks into the shm client's demultiplexer registration for the tests.

// shmParked is how many waiters and registered submissions c's
// demultiplexer counts: parked synchronous callers and orphan watchers,
// async and one-way submissions in flight, and batch entries handed over.
func shmParked(c *ShmClient) int32 { return c.parked.Load() }

// waitUnparked fails t unless c's count returns to zero within d.
func waitUnparked(t *testing.T, c *ShmClient, d time.Duration) {
	t.Helper()
	shmWaitFor(t, d, func() bool { return shmParked(c) == 0 },
		func() string { return fmt.Sprintf("parked = %d", shmParked(c)) })
}
