package lrpc

// The one TCP server loop (connLoop) under both of its routes: the
// System's import route behind ServeNetwork and the broker's tenant
// route. The table runs every shape over both and states, per route,
// what the loop must do with it.

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// routeRig is one route under test: Arith exported by a backend System,
// reached through a client on the route and through raw connections
// already past any admission.
type routeRig struct {
	broker bool
	exp    *Export
	log    *TraceLog // the route's tracer: System.SetTracer or BrokerOptions.Tracer
	client *NetClient
	dial   func(t *testing.T) net.Conn
	bk     *Broker
}

// tenant returns the broker rig's one tenant snapshot.
func (r *routeRig) tenant(t *testing.T) TenantSnapshot {
	t.Helper()
	_, tenants := r.bk.Snapshot()
	if len(tenants) != 1 {
		t.Fatalf("broker tenants %+v, want one", tenants)
	}
	return tenants[0]
}

func newRouteRig(t *testing.T, broker bool) *routeRig {
	t.Helper()
	sys := NewSystem()
	exp, err := sys.Export(arithInterface())
	if err != nil {
		t.Fatal(err)
	}
	r := &routeRig{broker: broker, exp: exp, log: NewTraceLog(0)}
	if !broker {
		sys.SetTracer(r.log)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go sys.ServeNetwork(l)
		if r.client, err = DialInterface("tcp", l.Addr().String(), "Arith"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.client.Close() })
		r.dial = func(t *testing.T) net.Conn {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			return conn
		}
		return r
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	r.bk = NewBroker(BrokerOptions{Tracer: r.log})
	// A call-only upstream: the shape of any BrokerUpstream that is
	// neither a NetClient nor LocalUpstream, so it cannot relay chains.
	r.bk.SetUpstream("Arith", struct{ BrokerUpstream }{LocalUpstream(b)})
	addr, err := r.bk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.bk.Close() })
	r.client = brokerTenant(t, addr, "edge", "").Client()
	r.dial = func(t *testing.T) net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := brokerHello(conn, brokerHelloArgs{Tenant: "edge", Service: "Arith"}, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	return r
}

// readReply reads one reply frame, returning its call id and status.
func readReply(t *testing.T, conn net.Conn) (uint64, byte, []byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) < 9 {
		t.Fatalf("short reply % x", frame)
	}
	return binary.LittleEndian.Uint64(frame[0:8]), frame[8], frame[9:]
}

// addThenReply writes a plain Add as call 9 behind whatever the caller
// wrote and requires that the next reply on the connection is its own:
// nothing was answered in between, and the stream stayed framed.
func addThenReply(t *testing.T, conn net.Conn) {
	t.Helper()
	if _, err := conn.Write(appendRequestFrame(nil, 9, "Arith", 0, addArgs(40, 2), nil)); err != nil {
		t.Fatal(err)
	}
	id, status, body := readReply(t, conn)
	if id != 9 || status != 0 || binary.LittleEndian.Uint32(body) != 42 {
		t.Fatalf("reply id %d status %d body % x, want the Add (id 9, status 0, 42)", id, status, body)
	}
}

func TestNetRouteEdges(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, r *routeRig)
	}{
		{"bulk in and out", func(t *testing.T, r *routeRig) {
			for _, h := range []*BulkHandle{NewBulkIn(make([]byte, 4096)), NewBulkOut(make([]byte, 4096))} {
				var before uint64
				if r.broker {
					before = r.tenant(t).BulkRejects
				}
				_, err := r.client.CallBulk(2, nil, h)
				if !r.broker {
					if err != nil {
						t.Fatalf("bulk %v on the server: %v", h.Dir(), err)
					}
					continue
				}
				if !errors.Is(err, ErrNotAdmitted) || !errors.Is(err, ErrNotExecuted) {
					t.Fatalf("bulk %v through the broker = %v, want ErrNotAdmitted + ErrNotExecuted", h.Dir(), err)
				}
				if res, err := r.client.Call(0, addArgs(1, 2)); err != nil || binary.LittleEndian.Uint32(res) != 3 {
					t.Fatalf("call after a refused bulk %v = %v, %v", h.Dir(), res, err)
				}
				if got := r.tenant(t).BulkRejects; got != before+1 {
					t.Fatalf("BulkRejects %d -> %d, want +1", before, got)
				}
			}
		}},
		{"one-way call", func(t *testing.T, r *routeRig) {
			conn := r.dial(t)
			defer conn.Close()
			calls := r.exp.Calls()
			if _, err := conn.Write(appendRequestFrame(nil, 5, "Arith", wireFlagOneWay, addArgs(1, 1), nil)); err != nil {
				t.Fatal(err)
			}
			addThenReply(t, conn) // no reply frame for call 5
			waitFor(t, func() bool { return r.exp.Calls() == calls+2 })
			if r.broker {
				waitFor(t, func() bool { return r.tenant(t).OneWays == 1 })
			}
		}},
		{"one-way chain", func(t *testing.T, r *routeRig) {
			conn := r.dial(t)
			defer conn.Close()
			drops := r.log.Count(TraceOneWayDrop)
			calls := r.exp.Calls()
			desc := appendChain(nil, NewChain().Add(2, nil).stages)
			if _, err := conn.Write(appendRequestFrame(nil, 5, "Arith", wireFlagChain|wireFlagOneWay, desc, nil)); err != nil {
				t.Fatal(err)
			}
			addThenReply(t, conn)
			if got := r.log.Count(TraceOneWayDrop); got != drops+1 {
				t.Fatalf("TraceOneWayDrop %d -> %d, want +1", drops, got)
			}
			if got := r.exp.Calls(); got != calls+1 {
				t.Fatalf("export calls %d -> %d: the one-way chain ran", calls, got)
			}
		}},
		{"chain", func(t *testing.T, r *routeRig) {
			res, err := r.client.CallChain(NewChain().Add(0, addArgs(20, 22)))
			if !r.broker {
				if err != nil || binary.LittleEndian.Uint32(res) != 42 {
					t.Fatalf("chain on the server = %v, %v", res, err)
				}
				return
			}
			if !errors.Is(err, ErrNotAdmitted) || !errors.Is(err, ErrNotExecuted) {
				t.Fatalf("chain to a call-only upstream = %v, want ErrNotAdmitted + ErrNotExecuted", err)
			}
		}},
		{"chain with bulk", func(t *testing.T, r *routeRig) {
			conn := r.dial(t)
			defer conn.Close()
			payload := make([]byte, 100<<10)
			desc := appendChain(nil, NewChain().Add(2, nil).stages)
			frame := appendRequestFrame(nil, 5, "Arith", wireFlagChain, desc, NewBulkIn(payload))
			if _, err := conn.Write(append(frame, payload...)); err != nil {
				t.Fatal(err)
			}
			if id, status, body := readReply(t, conn); id != 5 || !isRefusal(status, body, nil) {
				t.Fatalf("chain+bulk reply id %d status %d % x, want id 5 refused, not executed", id, status, body)
			}
			addThenReply(t, conn)
		}},
	}
	for _, broker := range []bool{false, true} {
		route := "server"
		if broker {
			route = "broker"
		}
		for _, tc := range cases {
			t.Run(route+"/"+tc.name, func(t *testing.T) { tc.run(t, newRouteRig(t, broker)) })
		}
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestNetRefusedBulkIsDrained: a bulk payload the server refuses before
// dispatch (here: an interface it does not export) is drained off the
// stream, never buffered.
func TestNetRefusedBulkIsDrained(t *testing.T) {
	addr, stop := startServer(t)
	defer stop()
	c, err := DialInterfaceOpts("tcp", addr, "Nothing", DialOptions{WriteTimeout: time.Minute, CallTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 256 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = c.CallBulk(0, nil, NewBulkReader(io.LimitReader(zeros{}, n), n))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrNotExecuted) {
		t.Fatalf("bulk call to an unexported interface = %v, want ErrNotExecuted", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= n/4 {
		t.Fatalf("refusing a %d-byte payload allocated %d bytes, want < %d", n, d, n/4)
	}
}

// TestBrokerBytesCountConnection: a tenant's BytesIn counts every byte
// its connection carried, a refused payload included.
func TestBrokerBytesCountConnection(t *testing.T) {
	bk, addr := startBrokerRig(t, BrokerOptions{})
	s := brokerTenant(t, addr, "bulky", "")
	const n = 1 << 20
	if _, err := s.Client().CallBulk(0, nil, NewBulkIn(make([]byte, n))); !errors.Is(err, ErrNotAdmitted) {
		t.Fatalf("bulk through the broker = %v, want ErrNotAdmitted", err)
	}
	_, tenants := bk.Snapshot()
	if len(tenants) != 1 || tenants[0].BytesIn < n || tenants[0].BytesOut == 0 {
		t.Fatalf("tenant snapshot %+v, want BytesIn >= %d", tenants, n)
	}
}
