package lrpc_test

// At-most-once classification tests for the failover path: the only
// frames ever re-sent — by the transport or by a replicated supervisor —
// are ones that provably never reached the wire (ErrNotSent) or that the
// server vouched it never dispatched (ErrNotExecuted). A frame written
// to a now-dead endpoint is returned as an error, never retried, even
// with RetryFailedCalls enabled.

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"lrpc"
	"lrpc/internal/faultinject"
)

// execRecorder counts handler executions per call id: the at-most-once
// ledger.
type execRecorder struct {
	mu    sync.Mutex
	execs map[uint64]int
}

func newExecRecorder() *execRecorder { return &execRecorder{execs: make(map[uint64]int)} }

func (r *execRecorder) record(id uint64) {
	r.mu.Lock()
	r.execs[id]++
	r.mu.Unlock()
}

func (r *execRecorder) count(id uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.execs[id]
}

// blockingEchoSystem exports svc.block: the handler records the 8-byte
// call id, signals entry, then parks until release — so a test can sever
// the connection while the frame is provably executing.
func blockingEchoSystem(t *testing.T, rec *execRecorder, entered chan<- uint64, release <-chan struct{}) *lrpc.System {
	t.Helper()
	sys := lrpc.NewSystem()
	_, err := sys.Export(&lrpc.Interface{
		Name: "svc.block",
		Procs: []lrpc.Proc{{
			Name:       "Block",
			AStackSize: 256,
			NumAStacks: 8,
			Handler: func(c *lrpc.Call) {
				args := c.Args()
				id := binary.LittleEndian.Uint64(args)
				rec.record(id)
				entered <- id
				<-release
				c.SetResults(append([]byte(nil), args...))
			},
		}},
	})
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	return sys
}

func callID(id uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], id)
	return buf[:]
}

// TestWrittenFrameNotRetried: transport level. A frame on the wire when
// the connection dies comes back ErrConnClosed — NOT ErrNotSent — and
// the transport's retry counter stays at zero: it must not guess.
func TestWrittenFrameNotRetried(t *testing.T) {
	rec := newExecRecorder()
	entered := make(chan uint64, 1)
	release := make(chan struct{})
	sys := blockingEchoSystem(t, rec, entered, release)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go sys.ServeNetworkOpts(ln, lrpc.ServeOptions{})

	part := faultinject.NewPartitioner()
	cli, err := lrpc.NewReconnectingClient("svc.block", lrpc.DialOptions{
		Dial:           part.Dialer("client", "server", ln.Addr().String()),
		CallTimeout:    5 * time.Second,
		RedialAttempts: 2,
		BackoffInitial: 2 * time.Millisecond,
		BackoffMax:     10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := cli.Call(0, callID(1))
		errCh <- err
	}()
	<-entered // the frame reached the handler: it is ON the wire
	part.Block("client", "server")
	err = <-errCh
	if err == nil {
		t.Fatal("call succeeded across a severed connection")
	}
	if !errors.Is(err, lrpc.ErrConnClosed) {
		t.Fatalf("written-frame error = %v, want ErrConnClosed", err)
	}
	if errors.Is(err, lrpc.ErrNotSent) {
		t.Fatalf("executed frame misclassified as never-sent: %v", err)
	}
	part.Heal("client", "server") // a buggy retry could now get through...
	close(release)
	time.Sleep(200 * time.Millisecond) // ...give it the chance to land
	if n := rec.count(1); n != 1 {
		t.Fatalf("frame executed %d times, want exactly 1", n)
	}
	if st := cli.Stats(); st.Retries != 0 {
		t.Fatalf("transport retried a written frame: %+v", st)
	}
}

// TestRetryFailedCallsNeverRetriesWrittenFrame: supervisor level, the
// satellite regression. Even with RetryFailedCalls enabled, a frame
// written to a now-dead endpoint is returned as an error — the
// supervisor rebinds in the background but never re-executes it. The
// NEXT call (a fresh frame) fails over transparently. The registry is
// an in-memory map: the verdict never depends on the registry's
// replication, only on what reached the wire.
func TestRetryFailedCallsNeverRetriesWrittenFrame(t *testing.T) {
	part := faultinject.NewPartitioner()
	reg := lrpc.NewMapRegistry()
	rec := newExecRecorder()
	entered := make(chan uint64, 4)
	release := make(chan struct{})
	sys := blockingEchoSystem(t, rec, entered, release)

	ns, err := lrpc.StartNetServer(sys, "127.0.0.1:0", lrpc.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	if _, err := ns.Announce(reg, "svc.block", 2*time.Second); err != nil {
		t.Fatalf("announce: %v", err)
	}

	sup, err := lrpc.SuperviseReplicated("svc.block", lrpc.ReplicatedOpts{
		Registry: reg,
		Net: lrpc.DialOptions{
			CallTimeout:    5 * time.Second,
			RedialAttempts: 2,
			BackoffInitial: 2 * time.Millisecond,
			BackoffMax:     10 * time.Millisecond,
		},
		DialTCP: func(addr string) (net.Conn, error) {
			return part.Dial("client", "server", addr)
		},
		RetryFailedCalls:     true, // even so: written frames stay dead
		RebindAttempts:       20,
		RebindBackoffInitial: 2 * time.Millisecond,
		RebindBackoffMax:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("SuperviseReplicated: %v", err)
	}
	defer sup.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := sup.Call(0, callID(7))
		errCh <- err
	}()
	<-entered // frame 7 is executing on the server
	part.Block("client", "server")
	err = <-errCh
	if err == nil {
		t.Fatal("call succeeded across a severed connection")
	}
	if !errors.Is(err, lrpc.ErrConnClosed) {
		t.Fatalf("written-frame error = %v, want ErrConnClosed", err)
	}
	if errors.Is(err, lrpc.ErrNotSent) {
		t.Fatalf("executed frame misclassified as never-sent: %v", err)
	}

	// Heal and drain: if anything were going to (wrongly) resend frame 7
	// it can now reach the server.
	part.Heal("client", "server")
	close(release)
	time.Sleep(300 * time.Millisecond)
	if n := rec.count(7); n != 1 {
		t.Fatalf("frame 7 executed %d times, want exactly 1", n)
	}

	// A FRESH frame does fail over transparently (never-sent retries are
	// exactly the frames the supervisor may replay).
	if _, err := sup.Call(0, callID(8)); err != nil {
		t.Fatalf("fresh call after heal: %v", err)
	}
	if n := rec.count(8); n != 1 {
		t.Fatalf("frame 8 executed %d times, want exactly 1", n)
	}
}

// TestNotSentClassification: a frame that never reached the wire (the
// connection died before the write) comes back ErrNotSent — the license
// for a supervisor to replay it.
func TestNotSentClassification(t *testing.T) {
	sys := lrpc.NewSystem()
	if _, err := sys.Export(&lrpc.Interface{
		Name: "svc.echo",
		Procs: []lrpc.Proc{{
			Name: "Echo", AStackSize: 256, NumAStacks: 4,
			Handler: func(c *lrpc.Call) { c.SetResults(c.Args()) },
		}},
	}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go sys.ServeNetworkOpts(ln, lrpc.ServeOptions{})

	part := faultinject.NewPartitioner()
	cli, err := lrpc.NewReconnectingClient("svc.echo", lrpc.DialOptions{
		Dial:           part.Dialer("client", "server", ln.Addr().String()),
		CallTimeout:    2 * time.Second,
		RedialAttempts: 2,
		BackoffInitial: 1 * time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Sever the link BEFORE any frame goes out: the local conn is closed
	// and every redial refuses, so no byte of this call hits a wire.
	part.Block("client", "server")
	_, err = cli.Call(0, callID(1))
	if err == nil {
		t.Fatal("call succeeded through a partition")
	}
	if !errors.Is(err, lrpc.ErrNotSent) {
		t.Fatalf("never-sent error = %v, want ErrNotSent", err)
	}
	if !errors.Is(err, lrpc.ErrConnClosed) {
		t.Fatalf("never-sent error = %v, should still unwrap to ErrConnClosed", err)
	}
}

// TestNotExecutedVouch: a failure record with executed 0 — the server's
// explicit promise that the handler never ran — surfaces as a
// RemoteError matching ErrNotExecuted, for both an unknown interface and
// a revoked export.
func TestNotExecutedVouch(t *testing.T) {
	sys := lrpc.NewSystem()
	exp, err := sys.Export(&lrpc.Interface{
		Name: "svc.echo",
		Procs: []lrpc.Proc{{
			Name: "Echo", AStackSize: 256, NumAStacks: 4,
			Handler: func(c *lrpc.Call) { c.SetResults(c.Args()) },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go sys.ServeNetworkOpts(ln, lrpc.ServeOptions{})

	dial := func(name string) *lrpc.NetClient {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return lrpc.NewNetClient(conn, name)
	}

	// Unknown interface: the import fails before dispatch.
	miss := dial("svc.missing")
	defer miss.Close()
	_, err = miss.Call(0, nil)
	if !errors.Is(err, lrpc.ErrNotExecuted) {
		t.Fatalf("unknown-interface error = %v, want ErrNotExecuted match", err)
	}
	var re *lrpc.RemoteError
	if !errors.As(err, &re) || !re.NotExecuted {
		t.Fatalf("unknown-interface error = %#v, want RemoteError{NotExecuted: true}", err)
	}

	// Revoked export: the binding rejects before the handler runs.
	cli := dial("svc.echo")
	defer cli.Close()
	if _, err := cli.Call(0, callID(1)); err != nil {
		t.Fatalf("priming call: %v", err)
	}
	exp.Terminate()
	_, err = cli.Call(0, callID(2))
	if !errors.Is(err, lrpc.ErrNotExecuted) {
		t.Fatalf("revoked-export error = %v, want ErrNotExecuted match", err)
	}
}
