package lrpc

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lrpc/internal/shmring"
)

// A TCP read waits in two phases (DESIGN §5.20): it first polls its
// socket with non-blocking reads for up to readProbe, holding its
// processor, and only then parks on the runtime's netpoller. A call's
// reply, or the next request of a connection in a ping-pong, usually
// arrives inside the probe, and the read pays no park and wake. This is
// the paper's idle processor spinning in the domain it waits for
// (§3.4), on the kernel's socket API.

// readProbe is how long a TCP read polls its socket before it parks. It
// covers one leg of a small call on a loopback connection — the peer's
// write, its handler and its reply — so the probe a caller starts when
// its request is written still runs when the reply lands.
const readProbe = 30 * time.Microsecond

// probers counts the goroutines of this process polling a socket now.
// At most shmring.Spare() poll at once, so at least one CPU is left to
// the peer a probe waits for, however many connections read; a read
// that finds every slot taken parks at once.
var (
	probers    atomic.Int32
	maxProbers = int32(shmring.Spare())
)

// probeBudget is a TCP read's probe budget in a process that may probe
// with spare goroutines at once: readProbe where it may run on more than
// one CPU, 0 on one CPU (spare 0), where a probe would only keep the
// peer it waits for off the processor.
func probeBudget(spare int32) time.Duration {
	if spare > 0 {
		return readProbe
	}
	return 0
}

// connReader is what the TCP plane's buffered readers read conn
// through: a probing reader where conn exposes its socket on a unix
// platform and the budget is not 0, and conn itself otherwise (net.Pipe,
// wrapped test conns, one CPU, other platforms).
func connReader(conn net.Conn) io.Reader { return newProbingReader(conn, probeBudget(maxProbers)) }

// claimProbe takes one of the process's probe slots, reporting false
// when every one is taken.
func claimProbe() bool {
	if probers.Add(1) > maxProbers {
		probers.Add(-1)
		return false
	}
	return true
}

// localPorts counts, by port, the TCP listeners this process serves and
// the client connections it has dialled. A loopback connection whose
// remote port is among them has its peer in this process, and there a
// read does not probe: when it parks, the runtime's netpoller finds the
// peer's goroutine ready on the same thread and runs it at once, where a
// probe would hold the thread and leave the peer to wait for another
// CPU to wake.
var localPorts = struct {
	sync.Mutex
	n map[int]int
}{n: map[int]int{}}

// holdPort enters a's port in localPorts until release runs; a non-TCP
// address enters nothing.
func holdPort(a net.Addr) (release func()) {
	ta, ok := a.(*net.TCPAddr)
	if !ok {
		return func() {}
	}
	localPorts.Lock()
	localPorts.n[ta.Port]++
	localPorts.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			localPorts.Lock()
			if localPorts.n[ta.Port]--; localPorts.n[ta.Port] == 0 {
				delete(localPorts.n, ta.Port)
			}
			localPorts.Unlock()
		})
	}
}

// peerInProcess reports whether the TCP peer at a is in this process: a
// loopback address on a port localPorts holds.
func peerInProcess(a *net.TCPAddr) bool {
	if a == nil || !a.IP.IsLoopback() {
		return false
	}
	localPorts.Lock()
	defer localPorts.Unlock()
	return localPorts.n[a.Port] > 0
}
