package lrpc

// Behavior tests for the multi-tenant broker plane: admission, policy
// enforcement (rate buckets, bulkheads, suspension, tokens), live
// policy updates, service confinement, and hostile first frames on the
// control interface. The crash/restart and registry-backed
// schedules live in broker_kill_test.go (package lrpc_test).

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// startBrokerRig builds an in-process backend serving Arith behind a
// broker listening on loopback, returning the broker and its address.
func startBrokerRig(t *testing.T, opts BrokerOptions) (*Broker, string) {
	t.Helper()
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	bk := NewBroker(opts)
	bk.SetUpstream("Arith", LocalUpstream(b))
	addr, err := bk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bk.Close() })
	return bk, addr
}

func brokerTenant(t *testing.T, addr, tenant, token string) *BrokerSession {
	t.Helper()
	s, err := SuperviseBroker(BrokerTenantOpts{
		Tenant:      tenant,
		Token:       token,
		Service:     "Arith",
		BrokerAddrs: []string{addr},
		Net: DialOptions{
			CallTimeout:    2 * time.Second,
			RedialAttempts: 2,
			BackoffInitial: time.Millisecond,
			BackoffMax:     5 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestBrokerAdmitAndCall(t *testing.T) {
	bk, addr := startBrokerRig(t, BrokerOptions{})
	s := brokerTenant(t, addr, "team-a", "")
	res, err := s.Call(0, addArgs(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(res); got != 42 {
		t.Fatalf("Add through broker = %d, want 42", got)
	}
	st := s.Stats()
	if st.Admits != 1 || st.Reattaches != 0 || st.Generation != bk.Generation() {
		t.Fatalf("session stats %+v, broker gen %d", st, bk.Generation())
	}
	info, tenants := bk.Snapshot()
	if info.Tenants != 1 || len(tenants) != 1 {
		t.Fatalf("snapshot %+v %+v", info, tenants)
	}
	ts := tenants[0]
	if ts.Tenant != "team-a" || ts.Calls != 1 || ts.Conns != 1 || ts.InFlight != 0 ||
		ts.Admits != 1 || ts.BytesIn == 0 || ts.BytesOut == 0 {
		t.Fatalf("tenant snapshot %+v", ts)
	}
}

// TestBrokerQuotaIsolation: an aggressor burning through its token
// bucket sheds with ErrQuotaExceeded while a victim tenant's calls keep
// succeeding — the centralized-policy headline.
func TestBrokerQuotaIsolation(t *testing.T) {
	bk, addr := startBrokerRig(t, BrokerOptions{})
	if err := bk.SetPolicy(&BrokerPolicy{
		AllowUnknown: true,
		Tenants: map[string]TenantPolicy{
			"aggressor": {RatePerSec: 0.001, Burst: 3, Priority: PriorityLow},
		},
	}); err != nil {
		t.Fatal(err)
	}
	victim := brokerTenant(t, addr, "victim", "")
	aggr := brokerTenant(t, addr, "aggressor", "")

	var sheds int
	for i := 0; i < 10; i++ {
		if _, err := aggr.Call(0, addArgs(1, 1)); err != nil {
			if !errors.Is(err, ErrQuotaExceeded) {
				t.Fatalf("aggressor call %d: %v (want ErrQuotaExceeded)", i, err)
			}
			if !errors.Is(err, ErrNotExecuted) {
				t.Fatalf("quota shed lost its non-execution vouch: %v", err)
			}
			sheds++
		}
	}
	if sheds < 7 {
		t.Fatalf("aggressor shed %d of 10 calls, want >= 7 (burst 3)", sheds)
	}
	for i := 0; i < 20; i++ {
		if _, err := victim.Call(0, addArgs(1, 1)); err != nil {
			t.Fatalf("victim call %d failed under aggressor flood: %v", i, err)
		}
	}
	_, tenants := bk.Snapshot()
	for _, ts := range tenants {
		switch ts.Tenant {
		case "aggressor":
			if ts.QuotaSheds != uint64(sheds) {
				t.Fatalf("aggressor QuotaSheds = %d, want %d", ts.QuotaSheds, sheds)
			}
		case "victim":
			if ts.QuotaSheds != 0 || ts.Calls != 20 {
				t.Fatalf("victim snapshot %+v", ts)
			}
		}
	}
}

// TestBrokerBulkhead: the per-tenant concurrency quota reuses the
// admission priority queue; at the cap with no queue, overflow sheds as
// ErrQuotaExceeded.
func TestBrokerBulkhead(t *testing.T) {
	sys := NewSystem()
	hold := make(chan struct{})
	started := make(chan struct{}, 16)
	if _, err := sys.Export(&Interface{
		Name: "Slow",
		Procs: []Proc{{Name: "Block", Handler: func(c *Call) {
			started <- struct{}{}
			<-hold
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Slow")
	if err != nil {
		t.Fatal(err)
	}
	bk := NewBroker(BrokerOptions{QueueTimeout: 50 * time.Millisecond})
	bk.SetUpstream("Slow", LocalUpstream(b))
	if err := bk.SetPolicy(&BrokerPolicy{
		AllowUnknown: true,
		Tenants:      map[string]TenantPolicy{"bursty": {MaxConcurrent: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	addr, err := bk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bk.Close()

	s, err := SuperviseBroker(BrokerTenantOpts{
		Tenant: "bursty", Service: "Slow", BrokerAddrs: []string{addr},
		Net: DialOptions{CallTimeout: 5 * time.Second, RedialAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Call(0, nil)
			errs <- err
		}()
	}
	<-started
	<-started // both bulkhead slots held inside the handler
	if _, err := s.Call(0, nil); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third concurrent call = %v, want ErrQuotaExceeded", err)
	}
	close(hold)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("held call failed: %v", err)
		}
	}
	_, tenants := bk.Snapshot()
	if len(tenants) != 1 || tenants[0].QuotaSheds != 1 || tenants[0].InFlight != 0 {
		t.Fatalf("tenant snapshot %+v", tenants)
	}
}

// TestBrokerBackToBackAtBulkhead pins the release-before-reply ordering
// of the relay goroutine: a tenant at MaxConcurrent: 1 with no queue that
// calls again the moment its reply arrives must never find its own
// finished call still holding the bulkhead slot, and the in-flight gauge
// must already read zero when the reply is in the tenant's hands.
func TestBrokerBackToBackAtBulkhead(t *testing.T) {
	bk, addr := startBrokerRig(t, BrokerOptions{})
	if err := bk.SetPolicy(&BrokerPolicy{
		AllowUnknown: true,
		Tenants:      map[string]TenantPolicy{"serial": {MaxConcurrent: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	s := brokerTenant(t, addr, "serial", "")
	for i := 0; i < 200; i++ {
		res, err := s.Call(0, addArgs(uint32(i), 1))
		if err != nil {
			t.Fatalf("back-to-back call %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint32(res); got != uint32(i)+1 {
			t.Fatalf("call %d = %d, want %d", i, got, i+1)
		}
		_, tenants := bk.Snapshot()
		if len(tenants) != 1 || tenants[0].InFlight != 0 || tenants[0].QuotaSheds != 0 {
			t.Fatalf("after reply %d: tenant snapshot %+v", i, tenants)
		}
	}
}

// TestBrokerLivePolicyUpdate: suspension and un-suspension apply to a
// live connection without re-dialing, and the policy version moves.
func TestBrokerLivePolicyUpdate(t *testing.T) {
	bk, addr := startBrokerRig(t, BrokerOptions{})
	s := brokerTenant(t, addr, "team-a", "")
	if _, err := s.Call(0, addArgs(1, 2)); err != nil {
		t.Fatal(err)
	}
	v1 := bk.PolicyVersion()
	if _, err := PushBrokerPolicy(addr, &BrokerPolicy{
		AllowUnknown: true,
		Tenants:      map[string]TenantPolicy{"team-a": {Suspended: true}},
	}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if bk.PolicyVersion() <= v1 {
		t.Fatalf("policy version did not advance: %d -> %d", v1, bk.PolicyVersion())
	}
	if _, err := s.Call(0, addArgs(1, 2)); !errors.Is(err, ErrTenantSuspended) {
		t.Fatalf("suspended tenant call = %v, want ErrTenantSuspended", err)
	}
	if _, err := PushBrokerPolicy(addr, &BrokerPolicy{AllowUnknown: true}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(0, addArgs(1, 2)); err != nil {
		t.Fatalf("un-suspended tenant call failed: %v", err)
	}
	_, tenants := bk.Snapshot()
	if len(tenants) != 1 || tenants[0].SuspendedRejects != 1 {
		t.Fatalf("tenant snapshot %+v", tenants)
	}
	// The applied policy is fetchable over the same control plane.
	p, err := FetchBrokerPolicy(addr, 2*time.Second)
	if err != nil || p == nil || p.Version != bk.PolicyVersion() {
		t.Fatalf("FetchBrokerPolicy = %+v, %v", p, err)
	}
}

// TestBrokerTokenAuth: a tenant whose policy demands a token is refused
// without it, with the refusal classified ErrNotAdmitted + not-executed.
func TestBrokerTokenAuth(t *testing.T) {
	bk, addr := startBrokerRig(t, BrokerOptions{})
	if err := bk.SetPolicy(&BrokerPolicy{
		Tenants: map[string]TenantPolicy{"secure": {Token: "s3cret"}},
	}); err != nil {
		t.Fatal(err)
	}
	// The first admission is synchronous: a policy refusal surfaces from
	// SuperviseBroker itself, classified ErrNotAdmitted + not-executed.
	dial := func(tenant, token string) error {
		s, err := SuperviseBroker(BrokerTenantOpts{
			Tenant: tenant, Token: token, Service: "Arith",
			BrokerAddrs: []string{addr},
		})
		if err == nil {
			s.Close()
		}
		return err
	}
	if err := dial("secure", "wrong"); !errors.Is(err, ErrNotAdmitted) {
		t.Fatalf("bad-token admission = %v, want ErrNotAdmitted", err)
	}
	if err := dial("secure", "wrong"); !errors.Is(err, ErrNotExecuted) {
		t.Fatalf("refusal lost its non-execution vouch: %v", err)
	}
	// Unknown tenants are refused outright under AllowUnknown: false.
	if err := dial("stranger", ""); !errors.Is(err, ErrNotAdmitted) {
		t.Fatalf("unknown-tenant admission = %v, want ErrNotAdmitted", err)
	}
	good := brokerTenant(t, addr, "secure", "s3cret")
	if _, err := good.Call(0, addArgs(40, 2)); err != nil {
		t.Fatalf("good-token call failed: %v", err)
	}
}

// TestBrokerServiceConfinement: a tenant admitted to one service cannot
// route frames to another through the same connection.
func TestBrokerServiceConfinement(t *testing.T) {
	_, addr := startBrokerRig(t, BrokerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r, err := brokerHello(conn, brokerHelloArgs{Tenant: "sneaky", Service: "Other"}, 2*time.Second)
	if err != nil || r.Gen == 0 {
		t.Fatalf("hello: %+v err=%v", r, err)
	}
	// Send a request frame for a service the HELLO did not admit.
	frame := appendRequestFrame(nil, 7, "Arith", 0, addArgs(1, 1), nil)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	reply, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) < 9 || binary.LittleEndian.Uint64(reply[0:8]) != 7 || !isRefusal(reply[8], reply[9:], ErrNotAdmitted) {
		t.Fatalf("confinement reply % x", reply)
	}
	if msg := string(reply[21:]); !strings.HasPrefix(msg, ErrNotAdmitted.Error()) {
		t.Fatalf("confinement message %q", msg)
	}
}

// firstFrames writes raw as a new broker connection's first bytes and
// reads until the broker closes it, returning the reply frames written
// meanwhile. A broker that neither answers nor closes within the
// deadline fails the test.
func firstFrames(t *testing.T, addr string, raw []byte) [][]byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	var replies [][]byte
	for {
		frame, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("broker neither answered nor closed: %v", err)
			}
			return replies
		}
		replies = append(replies, frame)
	}
}

// TestBrokerHostileFirstFrames: a connection's first frame is admitted
// only as a two-way call to the control interface. Garbage, a hello in
// the retired binary control dialect, a data call before any hello,
// one-way, bulk and chain first frames and unknown control procedures
// are refused — answered with one refusal (status 4, executed 0, the
// sentinel's code) when the request is
// parseable and two-way, else just closed — and never relayed; a length
// header beyond MaxControlFrame is cut before its body is read. An
// admin connection carries one request. A live tenant still calls after
// the parade.
func TestBrokerHostileFirstFrames(t *testing.T) {
	_, addr := startBrokerRig(t, BrokerOptions{MaxControlFrame: 4096})
	frame := func(payload []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	hello, _ := json.Marshal(brokerHelloArgs{Tenant: "hostile", Service: "Arith"})
	ctl := func(procWord uint32, args []byte, h *BulkHandle) []byte {
		return appendRequestFrame(nil, 1, brokerCtlIface, procWord, args, h)
	}
	// The first frame of a tenant built against the retired binary
	// control dialect: u32 magic 0x314B424C, version 1, op hello,
	// u16-prefixed tenant, token and service, u64 previous generation
	// and lease.
	oldHello := []byte("\x4c\x42\x4b\x31\x01\x01\x06\x00tenant\x00\x00\x05\x00Arith" + strings.Repeat("\x00", 16))
	cases := []struct {
		name  string
		raw   []byte
		reply error // the refusal's sentinel; nil when no reply may come
	}{
		{"raw garbage", []byte("GET / HTTP/1.1\r\n\r\n"), nil},
		{"framed garbage", frame([]byte("GET / HTTP/1.1\r\n\r\n")), nil},
		{"empty frame", frame(nil), nil},
		{"binary control-dialect hello", frame(oldHello), nil},
		{"data call before hello", appendRequestFrame(nil, 1, "Arith", 0, addArgs(1, 1), nil), ErrNotAdmitted},
		{"one-way hello", ctl(brokerProcHello|wireFlagOneWay, hello, nil), nil},
		{"bulk hello", ctl(brokerProcHello, hello, NewBulkOut(make([]byte, 8))), ErrNotAdmitted},
		{"chain first", ctl(wireFlagChain, []byte("chain"), nil), ErrNotAdmitted},
		{"unknown control procedure", ctl(99, nil, nil), ErrBadProcedure},
		{"length beyond MaxControlFrame", binary.LittleEndian.AppendUint32(nil, 1<<30), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			replies := firstFrames(t, addr, c.raw)
			if c.reply == nil {
				if len(replies) != 0 {
					t.Fatalf("replies % x, want the connection closed unanswered", replies)
				}
				return
			}
			if len(replies) != 1 {
				t.Fatalf("%d replies, want one refusal", len(replies))
			}
			r := replies[0]
			if len(r) < 9 || binary.LittleEndian.Uint64(r) != 1 || !isRefusal(r[8], r[9:], c.reply) {
				t.Fatalf("reply %q, want call 1 refused, not executed, under %q", r, c.reply)
			}
		})
	}
	t.Run("second admin request reads EOF", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := brokerCall(conn, brokerProcStats, nil, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		conn.Write(ctl(brokerProcStats, nil, nil)) // may fail: the broker has closed
		if frame, err := readFrame(conn); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("second admin request: reply %q, err %v; want the connection closed", frame, err)
		}
	})
	s := brokerTenant(t, addr, "survivor", "")
	if _, err := s.Call(0, addArgs(40, 2)); err != nil {
		t.Fatalf("call after hostile frames: %v", err)
	}
}

// TestBrokerMalformedHelloIsNotAdmitted: a hello the broker cannot
// accept as well-formed reaches the tenant as ErrNotAdmitted carrying
// the non-execution vouch, not as an unclassified failure.
func TestBrokerMalformedHelloIsNotAdmitted(t *testing.T) {
	_, addr := startBrokerRig(t, BrokerOptions{})
	raw := func(t *testing.T, args []byte) error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_, err = brokerCall(conn, brokerProcHello, args, 2*time.Second)
		return err
	}
	valid, _ := json.Marshal(brokerHelloArgs{Tenant: "t", Service: "Arith"})
	empty, _ := json.Marshal(brokerHelloArgs{Service: "Arith"})
	cases := []struct {
		name  string
		hello func(t *testing.T) error
	}{
		{"257-byte tenant", func(t *testing.T) error {
			_, err := SuperviseBroker(BrokerTenantOpts{
				Tenant: strings.Repeat("t", brokerMaxIdent+1), Service: "Arith", BrokerAddrs: []string{addr},
			})
			return err
		}},
		{"empty tenant", func(t *testing.T) error { return raw(t, empty) }},
		{"truncated hello args", func(t *testing.T) error { return raw(t, valid[:len(valid)/2]) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.hello(t)
			if !errors.Is(err, ErrNotAdmitted) || !errors.Is(err, ErrNotExecuted) {
				t.Fatalf("hello = %v, want ErrNotAdmitted with the ErrNotExecuted vouch", err)
			}
		})
	}
}

// TestBrokerMetricsText: the Prometheus exposition renders per-tenant
// series and escapes hostile tenant names.
func TestBrokerMetricsText(t *testing.T) {
	bk, addr := startBrokerRig(t, BrokerOptions{})
	s := brokerTenant(t, addr, "met\"ric\n", "")
	if _, err := s.Call(0, addArgs(1, 1)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := bk.WriteMetricsText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `lrpc_tenant_calls_total{tenant="met\"ric\n"} 1`) {
		t.Fatalf("metrics exposition:\n%s", out)
	}
	if !strings.Contains(out, "lrpc_broker_generation") {
		t.Fatalf("metrics exposition missing broker series:\n%s", out)
	}
}

// TestBrokerPolicyRoundTrip: store/load through a policy document's
// JSON form, highest version winning.
func TestBrokerPolicyRoundTrip(t *testing.T) {
	p := &BrokerPolicy{
		Version:      3,
		AllowUnknown: true,
		Default:      &TenantPolicy{RatePerSec: 100},
		Tenants: map[string]TenantPolicy{
			"a": {RatePerSec: 5, Burst: 10, MaxConcurrent: 2, Priority: PriorityHigh},
		},
	}
	c := p.clone()
	if c == p || c.Default == p.Default || *c.Default != *p.Default ||
		c.Version != p.Version || c.AllowUnknown != p.AllowUnknown ||
		fmt.Sprintf("%v", c.Tenants) != fmt.Sprintf("%v", p.Tenants) {
		t.Fatalf("clone mismatch: %+v vs %+v", c, p)
	}
	c.Tenants["b"] = TenantPolicy{}
	if _, leaked := p.Tenants["b"]; leaked {
		t.Fatal("clone shares the tenant map")
	}
	if tp, ok := p.lookup("a"); !ok || tp.RatePerSec != 5 {
		t.Fatalf("lookup a = %+v, %v", tp, ok)
	}
	if tp, ok := p.lookup("unknown"); !ok || tp.RatePerSec != 100 {
		t.Fatalf("lookup unknown = %+v, %v", tp, ok)
	}
	p.AllowUnknown = false
	if _, ok := p.lookup("unknown"); ok {
		t.Fatal("unknown admitted with AllowUnknown false")
	}
}
