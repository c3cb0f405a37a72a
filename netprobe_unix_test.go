//go:build unix

package lrpc

// The TCP plane's probing reader (DESIGN §5.20): which conns get it, what
// it returns at a close, a reset and a deadline, and that a read the
// probe answers never parks.

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// The server end closes first: a client read that never handed its
	// wait to the netpoller ends at the EOF, so the client's Close, which
	// waits for it, returns.
	t.Cleanup(func() { server.Close(); client.Close() })
	return client, server
}

// probing returns a probing reader over conn with the full budget,
// failing the test if conn did not get one.
func probing(t *testing.T, conn net.Conn) io.Reader {
	t.Helper()
	r := newProbingReader(conn, readProbe)
	if _, ok := readParks(r); !ok {
		t.Fatalf("%T got %T, want a probing reader", conn, r)
	}
	return r
}

// readWithin runs r.Read(p) and fails the test if it has not returned
// within d: a probe that never hands its wait to the netpoller would
// spin there for good.
func readWithin(t *testing.T, d time.Duration, r io.Reader, p []byte) (int, error) {
	t.Helper()
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := r.Read(p)
		done <- result{n, err}
	}()
	select {
	case res := <-done:
		return res.n, res.err
	case <-time.After(d):
		t.Fatalf("Read still blocked after %v", d)
		return 0, nil
	}
}

// TestNetProbeReaderSources: the budget follows the CPU count shmring
// reads; a budget of 0 and a conn without a socket (net.Pipe, or a
// tracked one around it) read through the conn itself, and a tracked
// loopback conn, as ServeNetServer and Broker.Serve accept, probes.
func TestNetProbeReaderSources(t *testing.T) {
	if probeBudget(0) != 0 || probeBudget(1) != readProbe {
		t.Fatalf("probeBudget(0) = %v, probeBudget(1) = %v; want 0 and %v", probeBudget(0), probeBudget(1), readProbe)
	}
	a, _ := tcpPair(t)
	if r := newProbingReader(a, 0); r != io.Reader(a) {
		t.Fatalf("budget 0: got %T, want the conn itself", r)
	}
	if r := connReader(a); (r == io.Reader(a)) != (maxProbers == 0) {
		t.Fatalf("connReader with %d probe slots gave %T", maxProbers, r)
	}
	p, q := net.Pipe()
	defer p.Close()
	defer q.Close()
	if r := newProbingReader(p, readProbe); r != io.Reader(p) {
		t.Fatalf("net.Pipe: got %T, want the conn itself", r)
	}
	tl := newTrackedListener(nil)
	if tc := (&trackedConn{Conn: p, l: tl}); newProbingReader(tc, readProbe) != io.Reader(tc) {
		t.Fatal("a tracked net.Pipe conn did not read through itself")
	}
	probing(t, &trackedConn{Conn: a, l: tl})
}

// TestNetProbeReaderEOF: the peer's close reads as io.EOF after the bytes
// it wrote, whether it lands inside the probe or after a park.
func TestNetProbeReaderEOF(t *testing.T) {
	a, b := tcpPair(t)
	r := probing(t, a)
	go func() {
		b.Write([]byte("x"))
		time.Sleep(10 * time.Millisecond) // past the probe: the close wakes a parked read
		b.Close()
	}()
	buf := make([]byte, 8)
	n, err := readWithin(t, 5*time.Second, r, buf)
	if n != 1 || err != nil {
		t.Fatalf("first read = %d, %v; want 1 byte", n, err)
	}
	if n, err = readWithin(t, 5*time.Second, r, buf); n != 0 || err != io.EOF {
		t.Fatalf("read after the peer's close = %d, %v; want io.EOF", n, err)
	}
}

// TestNetProbeReaderReset: a reset from the peer is the read's error, as
// the net package reports it.
func TestNetProbeReaderReset(t *testing.T) {
	a, b := tcpPair(t)
	r := probing(t, a)
	b.(*net.TCPConn).SetLinger(0)
	b.Close()
	_, err := readWithin(t, 5*time.Second, r, make([]byte, 8))
	var oe *net.OpError
	if !errors.Is(err, syscall.ECONNRESET) || !errors.As(err, &oe) || oe.Op != "read" {
		t.Fatalf("read after the peer's reset = %v; want a read OpError matching ECONNRESET", err)
	}
}

// TestNetProbeReaderDeadline: a read deadline set before a probing read
// fires, as the broker's hello deadline does, and one already past fails
// the read at once.
func TestNetProbeReaderDeadline(t *testing.T) {
	a, _ := tcpPair(t)
	r := probing(t, a)
	a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := readWithin(t, 5*time.Second, r, make([]byte, 8)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline = %v; want os.ErrDeadlineExceeded", err)
	}
	if _, err := readWithin(t, 5*time.Second, r, make([]byte, 8)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read under an expired deadline = %v; want os.ErrDeadlineExceeded", err)
	}
}

// writeAfter writes one byte to w once d has passed.
func writeAfter(w net.Conn, d time.Duration) { time.AfterFunc(d, func() { w.Write([]byte{1}) }) }

// TestNetProbeHitDoesNotPark: a read whose data arrives while it probes
// — written by the probe-start hook, so inside the probe whatever the
// scheduler does — returns without parking; with every probe slot of
// the process held, a read parks at once and never probes.
func TestNetProbeHitDoesNotPark(t *testing.T) {
	if maxProbers == 0 {
		t.Skip("one CPU: TCP reads do not probe")
	}
	a, b := tcpPair(t)
	r := probing(t, a)
	a.SetReadDeadline(time.Now().Add(30 * time.Second)) // a lost write fails the test, not hangs it
	probes := 0
	defer onProbe(r, func() {
		probes++
		b.Write([]byte{1})
	})()
	const rounds = 20
	buf := make([]byte, 1)
	for i := 0; i < rounds; i++ {
		if _, err := r.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	if parks, _ := readParks(r); probes != rounds || parks != 0 {
		t.Fatalf("%d reads answered inside their probe: %d probes, %d parks; want %d and 0", rounds, probes, parks, rounds)
	}
	release := holdProbes()
	defer release()
	for i := 0; i < rounds; i++ {
		writeAfter(b, time.Millisecond)
		if _, err := r.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	if parks, _ := readParks(r); probes != rounds || parks != rounds {
		t.Fatalf("%d reads with every probe slot held: %d more probes, %d parks; want 0 and %d", rounds, probes-rounds, parks, rounds)
	}
}

// TestNetProbeMissSkipsNext: a probe that misses makes the next read of
// its reader park without probing; the read after that probes again.
func TestNetProbeMissSkipsNext(t *testing.T) {
	if maxProbers == 0 {
		t.Skip("one CPU: TCP reads do not probe")
	}
	a, b := tcpPair(t)
	r := probing(t, a)
	a.SetReadDeadline(time.Now().Add(30 * time.Second)) // a lost write fails the test, not hangs it
	probes, answer := 0, false
	defer onProbe(r, func() {
		probes++
		if answer {
			b.Write([]byte{1})
		}
	})()
	buf := make([]byte, 1)
	read := func(want string, wantProbes int, wantParks uint64) {
		t.Helper()
		if _, err := r.Read(buf); err != nil {
			t.Fatal(err)
		}
		if parks, _ := readParks(r); probes != wantProbes || parks != wantParks {
			t.Fatalf("%s: %d probes, %d parks; want %d and %d", want, probes, parks, wantProbes, wantParks)
		}
	}
	writeAfter(b, 50*time.Millisecond)
	read("a read answered long after its probe", 1, 1)
	writeAfter(b, 50*time.Millisecond)
	read("the read after a missed probe", 1, 2)
	answer = true
	read("the read after that, answered inside its probe", 2, 2)
}

// TestNetProbeIdleHandoffParks: the read the watch hands to an idle
// client connection's background reader parks without probing, since no
// reply is due; a frame then read makes the reader's next read probe
// again.
func TestNetProbeIdleHandoffParks(t *testing.T) {
	if maxProbers == 0 {
		t.Skip("one CPU: TCP reads do not probe")
	}
	a, b := tcpPair(t)
	var probes atomic.Int32
	h := func(p *probingReader) {
		if p.conn == a {
			probes.Add(1)
		}
	}
	probeStarting.Store(&h)
	defer probeStarting.Store(nil)
	c := NewNetClient(a, "Arith")
	defer c.Close()
	src := liveConn(c).src
	parked := func(n uint64) func() bool {
		return func() bool { got, _ := readParks(src); return got == n }
	}
	waitFor(t, parked(1))
	if !backgroundHolds(c) {
		t.Fatal("the watch never handed the idle connection's read role to the background reader")
	}
	if n := probes.Load(); n != 0 {
		t.Fatalf("the handed-over read probed %d times before it parked, want 0", n)
	}
	// A reply frame nobody waits for: the reader reads it, keeps the
	// role, and its next read probes, misses and parks.
	frame := make([]byte, 4+9)
	binary.LittleEndian.PutUint32(frame, 9)
	if _, err := b.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, parked(2))
	if n := probes.Load(); n != 1 {
		t.Fatalf("the read after a frame probed %d times, want 1", n)
	}
}

// TestNetProbeSkipsPeerInProcess: a listener ServeNetwork serves and a
// connection a NetClient dialled mark their ports as this process's
// until they end, and a read whose loopback peer holds such a port parks
// without probing, and the reader reads through the conn from then on.
func TestNetProbeSkipsPeerInProcess(t *testing.T) {
	addr, stop := startServer(t)
	srv, _ := net.ResolveTCPAddr("tcp", addr)
	waitFor(t, func() bool { return peerInProcess(srv) })
	c, err := DialInterface("tcp", addr, "Arith")
	if err != nil {
		t.Fatal(err)
	}
	local := liveConn(c).conn.LocalAddr().(*net.TCPAddr)
	if !peerInProcess(local) {
		t.Fatal("a NetClient's connection is not marked as this process's")
	}
	if remote := (&net.TCPAddr{IP: net.IPv4(192, 0, 2, 1), Port: local.Port}); peerInProcess(remote) {
		t.Fatal("a non-loopback peer on a marked port counted as this process's")
	}
	c.Close()
	if peerInProcess(local) {
		t.Fatal("a closed NetClient's connection is still marked")
	}
	stop()
	waitFor(t, func() bool { return !peerInProcess(srv) })

	if maxProbers == 0 {
		return // one CPU: nothing probes
	}
	a, b := tcpPair(t)
	r := probing(t, a)
	a.SetReadDeadline(time.Now().Add(30 * time.Second)) // a lost write fails the test, not hangs it
	release := holdPort(b.LocalAddr())
	defer release()
	probes := 0
	defer onProbe(r, func() { probes++ })()
	const rounds = 10
	buf := make([]byte, 1)
	for i := 0; i < rounds; i++ {
		writeAfter(b, time.Millisecond)
		if _, err := r.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	// The first wait finds the peer in this process and parks; every
	// read after it is the conn's own.
	if parks, _ := readParks(r); probes != 0 || parks != 1 {
		t.Fatalf("%d reads from a peer in this process: %d probes, %d parks; want 0 and 1", rounds, probes, parks)
	}
}

// TestNetProbeReaderAllocs: a read through the probing reader allocates
// nothing: its raw-read callback is bound once per reader.
func TestNetProbeReaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	a, b := tcpPair(t)
	r := probing(t, a)
	if _, err := b.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	r.Read(buf) // the first read waits for the bytes
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := r.Read(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per read, want 0", allocs)
	}
}

// TestNetResetRetiresConnection: a server that resets the connection
// under a leading caller's read fails that call with ErrConnClosed and
// retires the connection, as a reset read by a parked reader does.
func TestNetResetRetiresConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		conn.Read(make([]byte, 64)) // the request
		conn.(*net.TCPConn).SetLinger(0)
		conn.Close()
	}()
	c, err := DialInterfaceOpts("tcp", l.Addr().String(), "Arith", DialOptions{RedialAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc := liveConn(c)
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(0, addArgs(1, 2))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("call under a reset = %v; want ErrConnClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call under a reset still blocked after 5s")
	}
	if liveConn(c) == cc {
		t.Fatal("the reset connection is still live")
	}
}
