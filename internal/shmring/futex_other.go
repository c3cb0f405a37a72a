//go:build !linux

package shmring

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Without a futex the park degrades to a bounded sleep-poll on the
// sequence word. Latency suffers (tens of microseconds per wake instead
// of a directed wakeup) but the protocol stays correct: PopWait always
// re-checks the ring after futexWait returns, and wakers need do
// nothing because the pollers notice the bumped word on their own.
func futexWait(addr *atomic.Uint32, val uint32, timeout time.Duration) {
	const poll = 50 * time.Microsecond
	if timeout <= 0 || timeout > 2*time.Millisecond {
		timeout = 2 * time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	for addr.Load() == val && time.Now().Before(deadline) {
		time.Sleep(poll)
	}
}

func futexWake(addr *atomic.Uint32, n int) {}

// OSYield degrades to a Go-scheduler yield where sched_yield is not
// available; the shm plane itself is Linux-only, so nothing
// cross-process depends on this.
func OSYield() { runtime.Gosched() }
