package lrpc

// The client's read role (DESIGN §5.19): a synchronous caller with no
// deadline reads its own reply, a call that cannot block in Read leaves
// it to the background reader, an idle connection still notices its
// peer's FIN, and no mix of callers leaves a call without a reader.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNetCallerReadsOwnReply: sequential calls with no deadline read
// their own replies, so 1,000 of them leave the background reader all
// but idle, while calls that carry a deadline and CallAsync→Wait never
// lead: the background reader reads (nearly) each of their replies. The
// client twin of TestNetLoneCallsRunOnReader.
func TestNetCallerReadsOwnReply(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := DialInterface("tcp", addr, "Arith")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	args := addArgs(1, 2)
	// A gap past the idle interval lets the background reader take the
	// role; the first call after one reads through it, hence the slack.
	before := backgroundFrames(c)
	for i := 0; i < 1000; i++ {
		if _, err := c.Call(0, args); err != nil {
			t.Fatal(err)
		}
	}
	if got := backgroundFrames(c) - before; got > 10 {
		t.Fatalf("1000 sequential calls with no deadline: the background reader read %d replies, want at most 10", got)
	}

	before = backgroundFrames(c)
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := c.CallContext(ctx, 0, args)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := backgroundFrames(c) - before; got < 90 {
		t.Fatalf("100 calls with a deadline: the background reader read %d replies, want at least 90", got)
	}

	before = backgroundFrames(c)
	for i := 0; i < 100; i++ {
		f, err := c.CallAsync(0, args)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := backgroundFrames(c) - before; got < 90 {
		t.Fatalf("100 CallAsync→Wait: the background reader read %d replies, want at least 90", got)
	}
}

// severingListener records the server's side of every connection it
// accepts, so a test can close them from the server's end.
type severingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *severingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, conn)
		l.mu.Unlock()
	}
	return conn, err
}

// sever closes every connection accepted so far, from the server's end.
func (l *severingListener) sever() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, conn := range l.conns {
		conn.Close()
	}
	l.conns = l.conns[:0]
}

// startSeveringServer serves Arith over TCP through a severingListener.
func startSeveringServer(t *testing.T) (*severingListener, func()) {
	t.Helper()
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &severingListener{Listener: inner}
	go sys.ServeNetwork(l)
	return l, func() { l.Close(); l.sever() }
}

// TestNetIdleConnNoticesFIN: with no call in flight nobody reads for a
// reply, yet when the server closes the connection the client detaches
// it — its background reader takes the idle role and reads the FIN — so
// the next call goes out on a fresh connection, and never into the dead
// socket (no retry).
func TestNetIdleConnNoticesFIN(t *testing.T) {
	l, stop := startSeveringServer(t)
	defer stop()
	c, err := DialInterfaceOpts("tcp", l.Addr().String(), "Arith", DialOptions{BackoffInitial: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if _, err := c.Call(2, nil); err != nil {
			t.Fatal(err)
		}
	}
	cc := liveConn(c)
	l.sever()
	deadline := time.Now().Add(time.Second)
	for liveConn(c) == cc {
		if time.Now().After(deadline) {
			t.Fatal("an idle connection the server closed was still live after 1s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := c.Call(2, nil); err != nil {
		t.Fatalf("the call after the server closed an idle connection: %v", err)
	}
	if st := c.Stats(); st.Retries != 0 || st.Reconnects != 1 {
		t.Fatalf("stats %+v, want one reconnect and no retry: a write went into the dead socket", st)
	}
}

// TestNetLeaderHandsOffPendingCall: a leader whose own reply arrives
// while another call is still pending hands the read role to the
// background reader, which reads that call's reply. With the watch
// stretched out of reach, a leader that let the role go free instead
// would strand the call, which the bounded wait reports.
func TestNetLeaderHandsOffPendingCall(t *testing.T) {
	r := newBlockRig(t)
	c := r.client
	stretchIdle(c, time.Hour)
	led := make(chan error, 1)
	go func() {
		_, err := c.Call(0, nil)
		led <- err
	}()
	r.waitEntered(t)
	waitFor(t, func() bool { return leading(c) })
	f, err := c.CallAsync(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.waitEntered(t)
	// Handlers blocked on the unbuffered release channel take its tokens
	// in the order they blocked: the leader's call goes first.
	r.release <- struct{}{}
	if err := <-led; err != nil {
		t.Fatalf("the leader's call: %v", err)
	}
	r.release <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := f.WaitContext(ctx); err != nil {
		t.Fatalf("the call pending when its leader left: %v; want its reply read by the background reader", err)
	}
}

// TestNetIdleWatchIsShared: one process-wide watch serves every
// client connection. It hands each connection left idle to its
// background reader, lets go of a connection once the role is taken or
// the connection retired, and parks once it holds none — so eight
// connections whose callers lead cost no timer of their own, and eight
// closed ones leave nothing ticking.
func TestNetIdleWatchIsShared(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	var cs []*NetClient
	for i := 0; i < 8; i++ {
		c, err := DialInterface("tcp", addr, "Arith")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call(2, nil); err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	for _, c := range cs {
		waitFor(t, func() bool { return backgroundHolds(c) })
		if cc := liveConn(c); idleWatched(c, cc) {
			t.Fatal("the watch kept a connection whose role it handed to the background reader")
		}
	}
	// A call while the background reader holds the role frees it again,
	// and the watch takes the connection back (and, with the idle
	// interval stretched, keeps it).
	stretchIdle(cs[0], time.Hour)
	if _, err := cs[0].Call(2, nil); err != nil {
		t.Fatal(err)
	}
	cc := liveConn(cs[0])
	waitFor(t, func() bool { return idleWatched(cs[0], cc) })
	var ccs []*clientConn
	for _, c := range cs {
		ccs = append(ccs, liveConn(c))
		c.Close()
	}
	for i, cc := range ccs {
		waitFor(t, func() bool { return !idleWatched(cs[i], cc) })
	}
	waitFor(t, func() bool { return !watchRunning() })
}

// TestNetMixedCallersSettle: eight goroutines share one NetClient, mixing
// calls with and without a deadline, CallAsync, batches and one-way
// calls, while the server severs the connection mid-run. Every future
// settles, the wait table ends empty, and no goroutine outlives the
// client. It runs with the watch, and again with only hand-offs to
// move the role, where a call left without a reader would never settle:
// the run is bounded by a timer, not left to hang.
func TestNetMixedCallersSettle(t *testing.T) {
	for _, tc := range []struct {
		name string
		idle time.Duration
	}{{"idle watch", watchTick}, {"hand-offs only", time.Hour}} {
		t.Run(tc.name, func(t *testing.T) { mixedCallers(t, tc.idle) })
	}
}

func mixedCallers(t *testing.T, idle time.Duration) {
	base := runtime.NumGoroutine()
	l, stop := startSeveringServer(t)
	c, err := DialInterfaceOpts("tcp", l.Addr().String(), "Arith", DialOptions{
		BackoffInitial: time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
		RedialAttempts: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	stretchIdle(c, idle)

	const workers, rounds = 8, 150
	var ops atomic.Int64
	// A severed connection may fail a call that was on the wire when it
	// died, or one that could not be sent, and nothing else.
	check := func(what string, err error) {
		if err != nil && !errors.Is(err, ErrConnClosed) && !errors.Is(err, ErrNotSent) {
			t.Errorf("%s: %v", what, err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			args := addArgs(uint32(w), 1)
			for i := 0; i < rounds; i++ {
				switch (w + i) % 5 {
				case 0:
					_, err := c.Call(0, args)
					check("Call", err)
				case 1:
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					_, err := c.CallContext(ctx, 0, args)
					cancel()
					check("CallContext", err)
				case 2:
					if f, err := c.CallAsync(0, args); err != nil {
						check("CallAsync", err)
					} else {
						_, err := f.Wait()
						check("CallAsync→Wait", err)
					}
				case 3:
					bt := c.NewBatch()
					for j := 0; j < 4; j++ {
						_, err := bt.Call(0, args)
						check("Batch.Call", err)
					}
					check("Batch.OneWay", bt.OneWay(2, nil))
					check("Batch.Wait", bt.Wait())
				case 4:
					check("CallOneWay", c.CallOneWay(2, nil))
				}
				ops.Add(1)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	running := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	// Sever four times, spread over the run.
	for cut := int64(1); cut <= 4; cut++ {
		for running() && ops.Load() < cut*workers*rounds/5 {
			time.Sleep(100 * time.Microsecond)
		}
		l.sever()
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("callers still blocked after 30s: %d of %d rounds done, %d calls pending", ops.Load(), workers*rounds, pendingCalls(c))
	}
	if n := pendingCalls(c); n != 0 {
		t.Errorf("%d calls left in the wait table after every caller returned", n)
	}
	c.Close()
	stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the client: leaked\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
