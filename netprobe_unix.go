//go:build unix

package lrpc

import (
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"lrpc/internal/shmring"
)

// probingReader reads a socket through its raw descriptor: a read that
// finds no data polls the socket with non-blocking reads for up to its
// budget, then hands the wait to the netpoller, which also enforces the
// connection's read deadline and notices its close. It is read by one
// goroutine at a time, as a bufio.Reader's source.
type probingReader struct {
	conn   net.Conn
	peer   *net.TCPAddr // conn's remote end; nil when it is not TCP
	rc     syscall.RawConn
	budget time.Duration
	read   func(fd uintptr) bool // r.readFD, bound once: a closure per Read would allocate

	// One Read's state, for readFD.
	p      []byte
	n      int
	err    error
	probed bool // this Read has had its chance to probe; after a park it does not again

	missed bool          // the last probe missed, so the next Read parks at once
	inProc bool          // the peer is in this process (peerInProcess), once seen
	parks  atomic.Uint64 // reads handed to the netpoller, for the tests
}

// newProbingReader returns a probing reader over conn with the given
// budget, or conn itself when the budget is 0 or conn does not expose its
// socket.
func newProbingReader(conn net.Conn, budget time.Duration) io.Reader {
	sc, ok := conn.(syscall.Conn)
	if !ok || budget <= 0 {
		return conn
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return conn
	}
	peer, _ := conn.RemoteAddr().(*net.TCPAddr)
	r := &probingReader{conn: conn, peer: peer, rc: rc, budget: budget}
	r.read = r.readFD
	return r
}

// Read reads what the socket holds into p, waiting as the type comment
// says; once the peer is known to be in this process, it is conn's own
// Read. A closed connection or an expired read deadline is the net
// package's own error.
func (r *probingReader) Read(p []byte) (int, error) {
	if r.inProc {
		return r.conn.Read(p) // it would never probe: the conn's own read costs less
	}
	if len(p) == 0 {
		return 0, nil
	}
	r.p, r.n, r.err, r.probed = p, 0, nil, false
	err := r.rc.Read(r.read)
	r.p = nil
	if err != nil {
		return 0, err
	}
	return r.n, r.err
}

// readFD is the raw read: true once a read(2) has answered, false to
// park on the netpoller. Only the first wait of a Read may probe, with
// a free probe slot, when the peer is not in this process
// (peerInProcess), and not right after a probe that missed: a peer that
// did not answer within one budget is not in a ping-pong with this
// reader now, and a second miss in a row would only spend a second
// budget.
func (r *probingReader) readFD(fd uintptr) bool {
	if r.readNow(int(fd)) {
		return true
	}
	if !r.probed {
		r.probed = true
		switch {
		case r.missed:
			r.missed = false
		case r.peerLocal():
		case claimProbe():
			hit := r.probe(int(fd))
			probers.Add(-1)
			if hit {
				return true
			}
			r.missed = true
		}
	}
	r.parks.Add(1)
	return false
}

// parkNext makes r's next wait park without probing, as if its last
// probe had missed. Nobody may be reading r.
func parkNext(r io.Reader) {
	if p, ok := r.(*probingReader); ok {
		p.missed = true
	}
}

// peerLocal reports whether the peer is in this process. A yes is kept:
// the peer's port stays held as long as the peer, and so this
// connection, lives. A no is asked again, since a peer's server may
// enter its port after the connection was made.
func (r *probingReader) peerLocal() bool {
	if !r.inProc {
		r.inProc = peerInProcess(r.peer)
	}
	return r.inProc
}

// probe polls fd with non-blocking reads for up to the budget. Between
// reads it offers the processor to any other runnable thread: the peer
// may be runnable on this very CPU, and a probe that kept it off would
// wait out its whole budget for nothing.
func (r *probingReader) probe(fd int) bool {
	if f := probeStarting.Load(); f != nil {
		(*f)(r)
	}
	for start := time.Now(); time.Since(start) < r.budget; shmring.OSYield() {
		if r.readNow(fd) {
			return true
		}
	}
	return false
}

// probeStarting, when set, runs as each probe starts: tests act inside
// a probe with it.
var probeStarting atomic.Pointer[func(*probingReader)]

// readNow makes one non-blocking read(2), retried across signals, and
// reports whether it answered: data, end of stream or an error, as the
// net package reports them.
func (r *probingReader) readNow(fd int) bool {
	for {
		n, err := syscall.Read(fd, r.p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return false
		case err != nil:
			n, r.err = 0, &net.OpError{Op: "read", Net: r.conn.LocalAddr().Network(),
				Source: r.conn.LocalAddr(), Addr: r.conn.RemoteAddr(), Err: os.NewSyscallError("read", err)}
		case n == 0:
			r.err = io.EOF
		}
		r.n = n
		return true
	}
}
