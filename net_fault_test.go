package lrpc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNetClientReconnects: cutting the client's connection must not kill
// the binding — the next call redials and succeeds.
func TestNetClientReconnects(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	var mu sync.Mutex
	var conns []net.Conn
	c, err := NewReconnectingClient("Arith", DialOptions{
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			return conn, nil
		},
		CallTimeout:    2 * time.Second,
		BackoffInitial: time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := []byte{1, 2, 3}
	if res, err := c.Call(1, payload); err != nil || !bytes.Equal(res, payload) {
		t.Fatalf("first call: %v %v", res, err)
	}
	// Sever the live connection out from under the client.
	mu.Lock()
	conns[0].Close()
	mu.Unlock()

	// The next call may race the loss discovery; within a couple of
	// attempts it must flow again over a fresh connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.Call(1, payload)
		if err == nil && bytes.Equal(res, payload) {
			break
		}
		if !errors.Is(err, ErrConnClosed) && !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("unexpected error while reconnecting: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered from a cut connection")
		}
	}
	if st := c.Stats(); st.Reconnects == 0 {
		t.Errorf("stats show no reconnect: %+v", st)
	}
}

// TestNetCallDeadline: a remote handler that stalls past the caller's
// deadline yields ErrCallTimeout, and the connection keeps serving other
// calls (the reply to the abandoned call is discarded by ID).
func TestNetCallDeadline(t *testing.T) {
	sys := NewSystem()
	release := make(chan struct{})
	if _, err := sys.Export(&Interface{Name: "Mix", Procs: []Proc{
		{Name: "Hang", AStackSize: 8, Handler: func(c *Call) { <-release }},
		{Name: "Fast", AStackSize: 8, Handler: func(c *Call) { c.SetResults([]byte{4}) }},
	}}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go sys.ServeNetwork(l)
	defer close(release)

	c, err := DialInterface("tcp", l.Addr().String(), "Mix")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.CallContext(ctx, 0, nil); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("stalled remote call: %v, want ErrCallTimeout", err)
	}
	// The same connection still serves.
	res, err := c.Call(1, nil)
	if err != nil || !bytes.Equal(res, []byte{4}) {
		t.Fatalf("call after timeout: %v %v", res, err)
	}
	if st := c.Stats(); st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
}

// TestNetClientBoundedInFlight: with a window of 1 and the slot held by a
// stalled call, the next call must time out waiting for the window, not
// pile up unboundedly.
func TestNetClientBoundedInFlight(t *testing.T) {
	sys := NewSystem()
	release := make(chan struct{})
	if _, err := sys.Export(&Interface{Name: "Hang", Procs: []Proc{{
		Name: "Wait", AStackSize: 8, Handler: func(c *Call) { <-release },
	}}}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go sys.ServeNetwork(l)
	defer close(release)

	c, err := DialInterfaceOpts("tcp", l.Addr().String(), "Hang", DialOptions{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	go c.Call(0, nil) // occupies the only window slot
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.CallContext(ctx, 0, nil); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("window-blocked call: %v, want ErrCallTimeout", err)
	}
}

// TestServeConnBoundsHandlerConcurrency: the server must never run more
// than MaxInFlight handlers of one connection at once, however hard the
// client pipelines.
func TestServeConnBoundsHandlerConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	sys := NewSystem()
	if _, err := sys.Export(&Interface{Name: "Gauge", Procs: []Proc{{
		Name: "Spin", AStackSize: 8,
		Handler: func(c *Call) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
		},
	}}}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go sys.ServeNetworkOpts(l, ServeOptions{MaxInFlight: 2})

	c, err := DialInterface("tcp", l.Addr().String(), "Gauge")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := c.Call(0, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Errorf("peak handler concurrency %d exceeded the bound 2", got)
	}
}

// failFirstWriteConn drops the first write attempt with zero bytes
// written, simulating a connection discovered dead at send time.
type failFirstWriteConn struct {
	net.Conn
	failed atomic.Bool
}

func (f *failFirstWriteConn) Write(p []byte) (int, error) {
	if f.failed.CompareAndSwap(false, true) {
		f.Conn.Close()
		return 0, errors.New("stale connection")
	}
	return f.Conn.Write(p)
}

// TestNetClientRetriesUnsentRequest: a request that never reached the
// wire is retried transparently on a fresh connection.
func TestNetClientRetriesUnsentRequest(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()

	first := true
	c, err := NewReconnectingClient("Arith", DialOptions{
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			if first {
				first = false
				return &failFirstWriteConn{Conn: conn}, nil
			}
			return conn, nil
		},
		CallTimeout:    2 * time.Second,
		BackoffInitial: time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := []byte{9, 8, 7}
	res, err := c.Call(1, payload)
	if err != nil || !bytes.Equal(res, payload) {
		t.Fatalf("retried call: %v %v", res, err)
	}
	st := c.Stats()
	if st.Retries == 0 || st.Reconnects == 0 {
		t.Errorf("expected a retry over a fresh connection, stats: %+v", st)
	}
}

// TestNetClientRedialBudget: with the server gone for good, a call must
// fail with ErrConnClosed after the bounded redial attempts — never hang.
func TestNetClientRedialBudget(t *testing.T) {
	addr, stop := startServer(t)
	c, err := DialInterfaceOpts("tcp", addr, "Arith", DialOptions{
		RedialAttempts: 2,
		BackoffInitial: time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(2, nil); err != nil {
		t.Fatalf("call before outage: %v", err)
	}
	stop() // listener gone: redials will be refused

	// Cut the live connection so the client must redial.
	c.mu.Lock()
	conn := c.w.conn
	c.mu.Unlock()
	conn.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(2, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("call against dead server: %v, want ErrConnClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call hung instead of exhausting its redial budget")
	}
}
