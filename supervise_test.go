package lrpc

// One table over the supervisor constructors: the recovery sequence is
// written once (supervise.go), so its edges — Close against a rebind in
// progress, a caller's context against the backoff sleep, calls after
// Close, the exhaustion sentinel — are asserted once and must hold for
// every configuration. supervise_linux_test.go appends the shm row.
// Everything here is public API; waits are on events with a deadline.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// supervisedFixture is one supervisor over one live server.
type supervisedFixture struct {
	sup   Caller
	close func()
	// kill takes the server away for good: no successor ever appears.
	kill func()
	// dials carries one token per dial attempt made after kill.
	dials chan struct{}
	armed atomic.Bool
}

func newSupervisedFixture() *supervisedFixture {
	// Sized past any attempt budget a row configures, so a token is never
	// dropped while the test still counts them.
	return &supervisedFixture{dials: make(chan struct{}, 256)}
}

// dialed is called from every row's dial hook.
func (fx *supervisedFixture) dialed() {
	if fx.armed.Load() {
		select {
		case fx.dials <- struct{}{}:
		default:
		}
	}
}

// awaitDials blocks until n dial attempts have been made since kill.
func (fx *supervisedFixture) awaitDials(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-fx.dials:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d dial attempts seen after the server died", i, n)
		}
	}
}

// superviseRow is one constructor. Zero budget arguments select the
// constructor's defaults.
type superviseRow struct {
	name      string
	exhausted error
	open      func(t *testing.T, attempts int, backoff time.Duration) *supervisedFixture
}

var superviseRows = []superviseRow{
	{name: "Supervise", exhausted: ErrRevoked, open: openSupervise},
	{name: "SuperviseReplicated", exhausted: ErrRegistryUnavailable, open: openSuperviseReplicated},
}

func nullInterface(name string) *Interface {
	return &Interface{Name: name, Procs: []Proc{{
		Name: "Null", AStackSize: 8, Handler: func(c *Call) { c.ResultsBuf(0) },
	}}}
}

func openSupervise(t *testing.T, attempts int, backoff time.Duration) *supervisedFixture {
	t.Helper()
	sys := NewSystem()
	exp, err := sys.Export(nullInterface("Svc"))
	if err != nil {
		t.Fatal(err)
	}
	fx := newSupervisedFixture()
	sup, err := Supervise(func() (*Binding, error) {
		fx.dialed()
		return sys.Import("Svc")
	}, SupervisorOpts{
		RebindAttempts:       attempts,
		RebindBackoffInitial: backoff,
		RebindBackoffMax:     backoff,
		ProbeInterval:        -1,
		ReapInterval:         -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.sup, fx.close = sup, sup.Close
	fx.kill = func() {
		fx.armed.Store(true)
		exp.Terminate()
	}
	t.Cleanup(sup.Close)
	return fx
}

// registerForever returns a registry that resolves name to eps for the
// whole test, so a killed server stays resolvable: the registry keeps
// answering and every bind attempt fails at the endpoint.
func registerForever(t *testing.T, name string, eps ...Endpoint) Registry {
	t.Helper()
	reg := NewMapRegistry()
	if _, err := reg.Register(name, time.Hour, eps...); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return reg
}

// openSuperviseReplicated binds in process, so kill is as synchronous as
// the Supervise row's. The service also lists a TCP endpoint nobody
// serves: once the local export is gone every recovery attempt tries it
// first (the failed endpoint is the last resort), which is the dial the
// fixture counts.
func openSuperviseReplicated(t *testing.T, attempts int, backoff time.Duration) *supervisedFixture {
	t.Helper()
	sys := NewSystem()
	exp, err := sys.Export(nullInterface("svc.null"))
	if err != nil {
		t.Fatal(err)
	}
	reg := registerForever(t, "svc.null",
		Endpoint{Plane: PlaneInproc}, Endpoint{Plane: PlaneTCP, Addr: "127.0.0.1:1"})

	fx := newSupervisedFixture()
	sup, err := SuperviseReplicated("svc.null", ReplicatedOpts{
		Registry: reg,
		Local:    sys,
		DialTCP: func(string) (net.Conn, error) {
			fx.dialed()
			return nil, errors.New("nobody serves this endpoint")
		},
		RebindAttempts:       attempts,
		RebindBackoffInitial: backoff,
		RebindBackoffMax:     backoff,
		ProbeInterval:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.sup, fx.close = sup, func() { sup.Close() }
	fx.kill = func() {
		fx.armed.Store(true)
		exp.Terminate()
	}
	t.Cleanup(fx.close)
	return fx
}

func TestSupervisorEdges(t *testing.T) {
	for _, row := range superviseRows {
		t.Run(row.name, func(t *testing.T) {
			// With the constructor's default budget a recovery round that
			// finds no successor lasts well over a second.
			t.Run("Close during a rebind", func(t *testing.T) {
				fx := row.open(t, 0, 0)
				if _, err := fx.sup.Call(0, nil); err != nil {
					t.Fatalf("call on a live server: %v", err)
				}
				fx.kill()
				callErr := make(chan error, 1)
				go func() {
					_, err := fx.sup.Call(0, nil)
					callErr <- err
				}()
				fx.awaitDials(t, 3) // the round is in its backoff loop
				start := time.Now()
				fx.close()
				if d := time.Since(start); d > 100*time.Millisecond {
					t.Errorf("Close took %v while a rebind was burning its budget, want < 100ms", d)
				}
				select {
				case err := <-callErr:
					if !errors.Is(err, ErrSupervisorClosed) {
						t.Errorf("call interrupted by Close = %v, want ErrSupervisorClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("the call outlived Close by 5s")
				}
			})

			t.Run("context bounds the rebind", func(t *testing.T) {
				fx := row.open(t, 0, 0)
				fx.kill()
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				start := time.Now()
				_, err := fx.sup.CallContext(ctx, 0, nil)
				if d := time.Since(start); d > 200*time.Millisecond {
					t.Errorf("CallContext under a 50ms context returned after %v, want < 200ms", d)
				}
				if !errors.Is(err, ErrCallTimeout) {
					t.Errorf("CallContext under an expired context = %v, want ErrCallTimeout", err)
				}
			})

			t.Run("calls after Close", func(t *testing.T) {
				fx := row.open(t, 0, 0)
				if _, err := fx.sup.Call(0, nil); err != nil {
					t.Fatalf("call on a live server: %v", err)
				}
				fx.close()
				if _, err := fx.sup.Call(0, nil); !errors.Is(err, ErrSupervisorClosed) {
					t.Errorf("Call after Close = %v, want ErrSupervisorClosed", err)
				}
				if _, err := fx.sup.CallContext(context.Background(), 0, nil); !errors.Is(err, ErrSupervisorClosed) {
					t.Errorf("CallContext after Close = %v, want ErrSupervisorClosed", err)
				}
			})

			t.Run("exhaustion sentinel", func(t *testing.T) {
				fx := row.open(t, 3, time.Microsecond)
				fx.kill()
				if _, err := fx.sup.Call(0, nil); !errors.Is(err, row.exhausted) {
					t.Errorf("call with no successor = %v, want %v", err, row.exhausted)
				}
			})
		})
	}
}

// TestVerdictsSurfacePeerReports: a failure the peer sent back in a
// failure record — a remote handler's panic, a relay's upstream timeout,
// alone or as a chain stage's cause — is surfaced by both verdicts: the
// peer answered, so the binding is not in question. The same sentinels
// raised in this process still mark the binding suspect, and a vouched
// refusal is still resent.
func TestVerdictsSurfacePeerReports(t *testing.T) {
	wire := func(err error, chain bool) error { return parseFailure(appendFailure(nil, err, 0), chain) }
	for _, sentinel := range []error{ErrCallFailed, ErrCallTimeout} {
		local := fmt.Errorf("%w: cause", sentinel)
		for _, err := range []error{wire(local, false), wire(&ChainError{Stage: 1, Executed: 2, Err: local}, true)} {
			if !errors.Is(err, sentinel) {
				t.Fatalf("%v does not match %v", err, sentinel)
			}
			if v := failoverVerdict(err); v != surface {
				t.Errorf("failoverVerdict(%v) = %d, want surface", err, v)
			}
			if v := revokedVerdict(err); v != surface {
				t.Errorf("revokedVerdict(%v) = %d, want surface", err, v)
			}
		}
		if v := failoverVerdict(local); v != suspect {
			t.Errorf("failoverVerdict(local %v) = %d, want suspect", local, v)
		}
	}
	if v := revokedVerdict(fmt.Errorf("%w: domain died", ErrCallFailed)); v != suspect {
		t.Errorf("revokedVerdict(local ErrCallFailed) = %d, want suspect", v)
	}
	if v := failoverVerdict(wire(ErrOverload, false)); v != resend {
		t.Errorf("failoverVerdict(remote overload) = %d, want resend", v)
	}
	if v := revokedVerdict(wire(ErrRevoked, false)); v != resend {
		t.Errorf("revokedVerdict(remote revoked) = %d, want resend", v)
	}
}

// TestReplicatedSurfacesRemotePanic: over TCP a handler's panic comes
// back as a failure record matching ErrCallFailed, and the supervisor
// neither resends it (RetryFailedCalls is set) nor rebinds, which would
// close the connection under a call still running on it: the server
// answered, so it is alive.
func TestReplicatedSurfacesRemotePanic(t *testing.T) {
	var panics atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	sys := NewSystem()
	if _, err := sys.Export(&Interface{Name: "svc.faulty", Procs: []Proc{
		{Name: "Panic", Handler: func(c *Call) { panics.Add(1); panic("handler fault") }},
		{Name: "Park", Handler: func(c *Call) { close(entered); <-release; c.ResultsBuf(0) }},
	}}); err != nil {
		t.Fatal(err)
	}
	ns, err := StartNetServer(sys, "127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	sup, err := SuperviseReplicated("svc.faulty", ReplicatedOpts{
		Registry:         registerForever(t, "svc.faulty", Endpoint{Plane: PlaneTCP, Addr: ns.Addr()}),
		RetryFailedCalls: true,
		ProbeInterval:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	before := sup.Stats().Rebinds

	parked := make(chan error, 1)
	go func() { _, err := sup.Call(1, nil); parked <- err }()
	<-entered
	_, err = sup.Call(0, nil)
	if !errors.Is(err, ErrCallFailed) || !errors.As(err, new(*RemoteError)) {
		t.Fatalf("remote panic = %v, want a *RemoteError matching ErrCallFailed", err)
	}
	if n := panics.Load(); n != 1 {
		t.Errorf("the panicking handler ran %d times, want 1", n)
	}
	close(release)
	if err := <-parked; err != nil {
		t.Errorf("the call parked beside the panic failed: %v", err)
	}
	if n := sup.Stats().Rebinds - before; n != 0 {
		t.Errorf("%d rebinds after a remote panic, want 0", n)
	}
}
