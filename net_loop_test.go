package lrpc

// The server loop's run-to-completion path (connLoop, netWatch) and
// the one connection writer (connWriter): a lone short request runs on
// its connection's reader, a slow procedure spawns, a blocked request
// never blocks the connection, the watch parks when idle and still
// hands off, and the write deadline follows its rule.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockRig serves "Block" over TCP: proc 0 signals entered and waits for
// one token on release, whatever kind of request reaches it; proc 1
// answers {1} at once.
type blockRig struct {
	entered chan struct{}
	release chan struct{}
	exp     *Export
	client  *NetClient
}

func newBlockRig(t *testing.T) *blockRig {
	t.Helper()
	r := &blockRig{entered: make(chan struct{}, 1), release: make(chan struct{})}
	sys := NewSystem()
	var err error
	if r.exp, err = sys.Export(&Interface{Name: "Block", Procs: []Proc{
		{Name: "Wait", AStackSize: 8, Handler: func(c *Call) {
			r.entered <- struct{}{}
			<-r.release
		}},
		{Name: "Fast", AStackSize: 8, Handler: func(c *Call) { c.SetResults([]byte{1}) }},
	}}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go sys.ServeNetwork(l)
	if r.client, err = DialInterface("tcp", l.Addr().String(), "Block"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.client.Close() })
	return r
}

// forgetSlow forgets that Wait ran long, so the next lone Wait request is
// served on its connection's reader again.
func (r *blockRig) forgetSlow() {
	for i := range r.exp.slow {
		r.exp.slow[i].Store(false)
	}
}

func (r *blockRig) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-r.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the blocking request never reached its handler")
	}
}

// fastWithin requires a second call on the rig's client to complete
// within 250 ms while the first is blocked on the server.
func (r *blockRig) fastWithin(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	if res, err := r.client.CallContext(ctx, 1, nil); err != nil || !bytes.Equal(res, []byte{1}) {
		t.Fatalf("second call behind a blocked handler = %v, %v; want {1} within 250ms", res, err)
	}
}

// lapsedCtx is a context whose deadline has passed but whose Done has
// not fired: the moment between a deadline and its timer.
type lapsedCtx struct {
	context.Context
	d time.Time
}

func (c lapsedCtx) Deadline() (time.Time, bool) { return c.d, true }

// TestNetExpiredCallLeavesConnection: a call whose deadline has already
// passed times out without touching the connection other calls are
// pipelined on — whether its context is done or its timer has yet to
// fire, when only the deadline itself says the call is late.
func TestNetExpiredCallLeavesConnection(t *testing.T) {
	r := newBlockRig(t)
	for i := 0; i < 20; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := r.client.Call(0, nil)
			done <- err
		}()
		r.waitEntered(t)
		past := time.Now().Add(-time.Second)
		var ctx context.Context = lapsedCtx{context.Background(), past}
		if i%2 == 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(context.Background(), past)
			defer cancel()
		}
		if _, err := r.client.CallContext(ctx, 1, nil); !errors.Is(err, ErrCallTimeout) {
			t.Errorf("round %d: expired call = %v, want ErrCallTimeout", i, err)
		}
		r.release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("round %d: in-flight call = %v, want success", i, err)
		}
	}
	if st := r.client.Stats(); st.Reconnects != 0 || st.Timeouts != 20 {
		t.Fatalf("stats %+v, want 0 reconnects and 20 timeouts", st)
	}
}

// TestNetBlockedHandlerFreesConnection: whatever kind of request runs
// alone on a connection — and so on its reader — blocking in its handler
// never blocks the next call on that connection.
func TestNetBlockedHandlerFreesConnection(t *testing.T) {
	cases := []struct {
		name string
		call func(c *NetClient) error
	}{
		{"call", func(c *NetClient) error { _, err := c.Call(0, nil); return err }},
		{"chain", func(c *NetClient) error { _, err := c.CallChain(NewChain().Add(1, nil).Add(0, nil)); return err }},
		{"bulk in", func(c *NetClient) error { _, err := c.CallBulk(0, nil, NewBulkIn(make([]byte, 64<<10))); return err }},
		{"bulk out", func(c *NetClient) error { _, err := c.CallBulk(0, nil, NewBulkOut(make([]byte, 4096))); return err }},
		{"one-way", func(c *NetClient) error { return c.CallOneWay(0, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newBlockRig(t)
			done := make(chan error, 1)
			go func() { done <- tc.call(r.client) }()
			r.waitEntered(t)
			r.fastWithin(t)
			r.release <- struct{}{}
			if err := <-done; err != nil {
				t.Fatalf("blocked %s = %v", tc.name, err)
			}
		})
	}
}

// watchedLoop is the loop in the watch's set whose peer is c's
// live connection, or nil.
func watchedLoop(c *NetClient) *connLoop {
	c.mu.Lock()
	local := c.w.conn.LocalAddr().String()
	c.mu.Unlock()
	netWatch.mu.Lock()
	defer netWatch.mu.Unlock()
	for _, l := range netWatch.loops {
		if l.conn != nil && l.conn.RemoteAddr().String() == local {
			return l
		}
	}
	return nil
}

// serverLoop finds the server loop whose peer is c's live connection. A
// loop is in the watch's set from a request its reader serves until
// a tick without one, so each try first calls proc, a short procedure.
func serverLoop(t *testing.T, c *NetClient, proc int, args []byte) *connLoop {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Call(proc, args); err != nil {
			t.Fatal(err)
		}
		if l := watchedLoop(c); l != nil {
			return l
		}
	}
	t.Fatal("the client connection's server loop never served a request on its reader")
	return nil
}

// loopCount reads l's count once its reader has finished serving: the
// closing CAS may trail the last reply the client saw.
func loopCount(t *testing.T, l *connLoop) uint64 {
	t.Helper()
	waitFor(t, func() bool { return l.run.Load()%2 == 0 })
	return l.run.Load()
}

// advance makes n calls of proc on c and reports how far they advanced
// l's count.
func advance(t *testing.T, c *NetClient, l *connLoop, n, proc int, args []byte) uint64 {
	t.Helper()
	before := loopCount(t, l)
	for i := 0; i < n; i++ {
		if _, err := c.Call(proc, args); err != nil {
			t.Fatal(err)
		}
	}
	return loopCount(t, l) - before
}

// onReader reports whether n calls of proc were served on l's reader,
// each advancing its count by 2 — all but a tenth of them: a run the
// host preempts past inlineMax sends the next call of its procedure to a
// goroutine, which a race-instrumented run on a loaded host sees a few
// times in a hundred. Spawned calls advance it by none.
func onReader(t *testing.T, c *NetClient, l *connLoop, n, proc int, args []byte) (uint64, bool) {
	t.Helper()
	got := advance(t, c, l, n, proc, args)
	return got, got <= uint64(2*n) && got >= uint64(2*(n-n/10))
}

// TestNetLoneCallsRunOnReader: sequential calls on one connection are
// served on its reader — 1,000 calls advance the loop's count by 2,000,
// and a spawned call would advance it by none — while a broker
// tenant connection, whose target is an upstream round trip, never is:
// its loop never joins the watch's set.
func TestNetLoneCallsRunOnReader(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := DialInterface("tcp", addr, "Arith")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l := serverLoop(t, c, 0, addArgs(1, 2))
	if got, ok := onReader(t, c, l, 1000, 0, addArgs(1, 2)); !ok {
		t.Fatalf("1000 lone calls advanced the loop's count by %d, want 2000 (at least 1800)", got)
	}

	_, baddr := startBrokerRig(t, BrokerOptions{})
	tc := brokerTenant(t, baddr, "edge", "").Client()
	for i := 0; i < 100; i++ {
		if _, err := tc.Call(0, addArgs(1, 2)); err != nil {
			t.Fatal(err)
		}
		if watchedLoop(tc) != nil {
			t.Fatal("a broker tenant loop joined the watch's set: a relay ran on the reader")
		}
	}
}

// TestNetSlowProcedureSpawns: a procedure whose last run outlasted
// inlineMax is served on a spawned goroutine, so a request behind it is
// read at once, while a short procedure beside it stays on the reader;
// one short run puts the procedure back on the reader.
func TestNetSlowProcedureSpawns(t *testing.T) {
	sys := NewSystem()
	exp, err := sys.Export(&Interface{Name: "Pace", Procs: []Proc{
		{Name: "Null", AStackSize: 8, Handler: func(c *Call) {}},
		{Name: "Nap", AStackSize: 8, Handler: func(c *Call) {
			if len(c.Args()) > 0 {
				time.Sleep(2 * inlineMax)
			}
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go sys.ServeNetwork(ln)
	c, err := DialInterface("tcp", ln.Addr().String(), "Pace")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l := serverLoop(t, c, 0, nil)
	nap := []byte{1}
	if _, err := c.Call(1, nap); err != nil {
		t.Fatal(err)
	}
	if !exp.slow[1].Load() {
		t.Fatalf("a %v nap did not mark its procedure slow", 2*inlineMax)
	}
	if got := advance(t, c, l, 10, 1, nap); got != 0 {
		t.Fatalf("10 slow calls advanced the loop's count by %d, want 0 (spawned)", got)
	}
	if got, ok := onReader(t, c, l, 100, 0, nil); !ok {
		t.Fatalf("100 short calls beside the slow procedure advanced the count by %d, want 200 (at least 180)", got)
	}
	// A short run clears the mark; allow for a few preempted past it.
	for i := 0; exp.slow[1].Load(); i++ {
		if i == 10 {
			t.Fatal("ten short runs left the procedure marked slow")
		}
		if got := advance(t, c, l, 1, 1, nil); got != 0 {
			t.Fatalf("a call of the slow procedure advanced the count by %d, want 0 (spawned)", got)
		}
	}
	if got, ok := onReader(t, c, l, 100, 1, nil); !ok {
		t.Fatalf("100 short runs of the once-slow procedure advanced the count by %d, want 200 (at least 180)", got)
	}
}

// watchParked polls, without sleeping, until the watch has parked
// and, with gone, until its goroutine has exited.
func watchParked(t *testing.T, within time.Duration, gone bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	var buf []byte
	if gone {
		buf = make([]byte, 1<<20)
	}
	for netWatch.running.Load() ||
		gone && strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*watch).tick") {
		if time.Now().After(deadline) {
			t.Fatalf("the watch still runs %v after its connections went idle", within)
		}
		runtime.Gosched()
	}
}

// TestNetStallWatchParks: an idle server leaves no watch running,
// and a watch that has parked — or is parking at that instant — still
// hands a blocked lone request off. Even rounds begin once the watch has
// parked, so the reader restarts it. Odd rounds begin inside the watch,
// between its last scan and its store of running = false, where the
// reader finds the watch still running and starts none: only the
// re-scan after that store sees the request.
func TestNetStallWatchParks(t *testing.T) {
	r := newBlockRig(t)
	if _, err := r.client.Call(1, nil); err != nil {
		t.Fatal(err)
	}
	watchParked(t, 250*watchTick, true)
	defer watchParking.Store(nil)

	for i := 0; i < 500; i++ {
		r.forgetSlow()
		done := make(chan error, 1)
		block := func() {
			go func() {
				_, err := r.client.Call(0, nil)
				done <- err
			}()
		}
		if i%2 == 0 {
			watchParked(t, 250*watchTick, false)
			block()
			r.waitEntered(t)
		} else {
			entered := make(chan bool, 1)
			var once sync.Once
			hook := func() {
				once.Do(func() {
					block()
					select {
					case <-r.entered:
						entered <- true
					case <-time.After(5 * time.Second):
						entered <- false
					}
				})
			}
			watchParking.Store(&hook)
			// Wake the watch with an idle loop of its own: it drops the
			// loop at its next scan, parks, and runs the hook.
			netWatch.enter(&connLoop{})
			select {
			case ok := <-entered:
				if !ok {
					t.Fatalf("round %d: the blocking request never reached its handler", i)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: the watch never parked", i)
			}
			watchParking.Store(nil)
		}
		r.fastWithin(t)
		r.release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("round %d: blocked call = %v", i, err)
		}
	}
}

// TestNetOneWatch: a server loop serving on its reader and an idle
// client connection in the same process are held by one watch
// goroutine, which parks once both are idle.
func TestNetOneWatch(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := DialInterface("tcp", addr, "Arith")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stretchIdle(c, time.Hour) // the connection stays in the watch while idle
	cc := liveConn(c)
	for deadline := time.Now().Add(5 * time.Second); ; {
		if _, err := c.Call(2, nil); err != nil {
			t.Fatal(err)
		}
		if watchedLoop(c) != nil && idleWatched(c, cc) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the server loop and the idle connection were never in the watch together")
		}
	}
	buf := make([]byte, 1<<20)
	if n := strings.Count(string(buf[:runtime.Stack(buf, true)]), "lrpc.(*watch).tick("); n != 1 {
		t.Fatalf("%d watch goroutines hold a server loop and a client connection, want 1", n)
	}
	stretchIdle(c, watchTick)
	watchParked(t, 250*watchTick, true)
	if idleWatched(c, cc) || !backgroundHolds(c) {
		t.Fatal("the watch parked before it handed the idle connection to its background reader")
	}
}

// deadlineConn counts SetWriteDeadline calls and accepts every write.
type deadlineConn struct {
	net.Conn // nil: only Write and SetWriteDeadline are called
	sets     int
	last     time.Time
}

func (c *deadlineConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *deadlineConn) SetWriteDeadline(d time.Time) error {
	c.sets++
	c.last = d
	return nil
}

// TestNetWriteDeadlineRule: the connection writer arms its deadline
// once for many writes, sets a call's earlier deadline exactly, re-arms
// only when less than half the budget remains or a bulk payload
// follows, and bounds a stalled write — reply or request — by half to
// all of WriteTimeout.
func TestNetWriteDeadlineRule(t *testing.T) {
	fc := &deadlineConn{}
	w := &connWriter{timeout: 10 * time.Second, conn: fc}
	frame := make([]byte, 16)
	write := func(due time.Time, bulk []byte) {
		t.Helper()
		if _, err := w.write(frame, due, bulk, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		write(time.Time{}, nil)
	}
	if fc.sets != 1 {
		t.Fatalf("1000 frame writes set the deadline %d times, want 1", fc.sets)
	}
	due := time.Now().Add(time.Second)
	write(due, nil)
	if fc.sets != 2 || !fc.last.Equal(due) {
		t.Fatalf("an earlier call deadline: %d sets, last %v, want 2 sets and exactly %v", fc.sets, fc.last, due)
	}
	write(time.Time{}, nil) // 1s of 10s remains
	if fc.sets != 3 || time.Until(fc.last) < 9*time.Second {
		t.Fatalf("a plain write with 1s left: %d sets, %v left, want a re-arm to 10s", fc.sets, time.Until(fc.last))
	}
	w.armed = time.Now().Add(w.timeout/2 + time.Second)
	write(time.Time{}, nil)
	if fc.sets != 3 {
		t.Fatalf("a plain write with over half left re-armed (%d sets)", fc.sets)
	}
	w.armed = time.Now().Add(w.timeout/2 - time.Second)
	write(time.Time{}, nil)
	if fc.sets != 4 {
		t.Fatalf("a plain write with under half left did not re-arm (%d sets)", fc.sets)
	}
	write(time.Time{}, make([]byte, 8))
	if fc.sets != 5 {
		t.Fatalf("a bulk payload did not get a fresh budget (%d sets)", fc.sets)
	}

	// A stalled peer, after one write it did read: the armed budget has
	// aged, and the stalled write still gets between half and all of it.
	const timeout, slack = 60 * time.Millisecond, 200 * time.Millisecond
	for _, side := range []string{"reply", "request"} {
		t.Run(side, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			var send func() error
			if side == "reply" {
				w := &connWriter{timeout: timeout, conn: a}
				send = func() error { return writeReply(w, 1, 0, []byte("x"), nil) }
			} else {
				c := NewNetClientOpts(a, "Arith", DialOptions{WriteTimeout: timeout})
				defer c.Close()
				send = func() error { return c.CallOneWay(0, nil) }
			}
			read := make(chan error, 1)
			go func() {
				_, err := readFrame(b)
				read <- err
			}()
			if err := send(); err != nil {
				t.Fatal(err)
			}
			if err := <-read; err != nil {
				t.Fatal(err)
			}
			time.Sleep(timeout / 3)
			start := time.Now()
			err := send()
			if took := time.Since(start); err == nil || took < timeout/2 || took > timeout+slack {
				t.Fatalf("stalled %s write = %v after %v, want a failure within [%v, %v]",
					side, err, took, timeout/2, timeout+slack)
			}
		})
	}
}
