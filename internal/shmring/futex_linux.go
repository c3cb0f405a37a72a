//go:build linux

package shmring

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Shared (non-private) futex ops: the word lives in a MAP_SHARED
// segment and the waiter and waker are different processes, so the
// FUTEX_PRIVATE_FLAG fast path must not be used.
const (
	futexWaitOp = 0 // FUTEX_WAIT
	futexWakeOp = 1 // FUTEX_WAKE
)

// futexWait parks until the word changes from val, the timeout quantum
// expires, or a spurious wake arrives. Callers always re-check the ring
// after returning, so every outcome is safe. Syscall (not RawSyscall)
// tells the runtime the thread may block, letting other goroutines —
// possibly the producer we are waiting on — keep running.
func futexWait(addr *atomic.Uint32, val uint32, timeout time.Duration) {
	var tsp unsafe.Pointer
	if timeout > 0 {
		ts := syscall.NsecToTimespec(timeout.Nanoseconds())
		tsp = unsafe.Pointer(&ts)
	}
	syscall.Syscall6(syscall.SYS_FUTEX,
		uintptr(unsafe.Pointer(addr)), futexWaitOp, uintptr(val),
		uintptr(tsp), 0, 0)
}

// futexWake wakes up to n waiters parked on the word.
func futexWake(addr *atomic.Uint32, n int) {
	syscall.Syscall6(syscall.SYS_FUTEX,
		uintptr(unsafe.Pointer(addr)), futexWakeOp, uintptr(n),
		0, 0, 0)
}

// OSYield offers the processor to other runnable OS threads and
// processes (sched_yield) — the half of Yield that runtime.Gosched
// cannot do: the Go scheduler cannot run the other domain. It leaves the
// Go scheduler alone, so a busy wait can call it between polls: a peer
// runnable on this CPU runs, and with none it returns at once.
func OSYield() {
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}
