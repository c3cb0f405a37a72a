package registry_test

// Crash-restart schedules for the broker plane: a real broker process
// (this test binary re-exec'd into a scripted role) is SIGKILLed and
// restarted mid-traffic while tenants run SuperviseBroker, and the
// at-most-once ledger on the backend proves zero double executions.
// In-process variants cover lease expiry while the broker is down and
// Announcement behavior across registry leader generations. All run
// under -race via `make brokertest`.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"lrpc"
	"lrpc/internal/faultinject"
	"lrpc/registry"
)

const (
	brokerRegistryEnv = "LRPC_BROKER_REGISTRY"
	brokerBackendEnv  = "LRPC_BROKER_BACKEND"
	brokerRole        = "broker-daemon"
)

// ledgerInterface serves proc 0: args = u64 call ID, handler bumps the
// ledger and echoes the ID back.
func ledgerInterface(l *execRecorder) *lrpc.Interface {
	return &lrpc.Interface{
		Name: "bench.echo",
		Procs: []lrpc.Proc{{Name: "Mark", Handler: func(c *lrpc.Call) {
			args := c.Args()
			if len(args) >= 8 {
				l.record(binary.LittleEndian.Uint64(args))
			}
			buf := c.ResultsBuf(len(args))
			copy(buf, args)
		}}},
	}
}

// TestBrokerChildRole is not a test of its own: it is the scripted
// broker process for TestBrokerKillRestartMidTraffic. It brings up a
// broker on an ephemeral port, points its "bench.echo" upstream at the
// backend named in the environment, announces itself in the registry
// named in the environment, prints READY, and serves until SIGKILLed.
func TestBrokerChildRole(t *testing.T) {
	if !faultinject.IsChild(brokerRole) {
		t.Skip("helper role; driven by TestBrokerKillRestartMidTraffic")
	}
	regAddrs := strings.Split(os.Getenv(brokerRegistryEnv), ",")
	backend := os.Getenv(brokerBackendEnv)
	rc := registry.NewClient(regAddrs, registry.ClientOpts{
		CallTimeout: 400 * time.Millisecond,
		OpTimeout:   10 * time.Second,
	})
	up, err := lrpc.NewReconnectingClient("bench.echo", lrpc.DialOptions{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", backend, 2*time.Second)
		},
		CallTimeout:    2 * time.Second,
		RedialAttempts: 3,
	})
	if err != nil {
		faultinject.Emit("ERR upstream dial: %v", err)
		os.Exit(1)
	}
	bk := lrpc.NewBroker(lrpc.BrokerOptions{PolicyPoll: -1})
	bk.SetUpstream("bench.echo", up)
	addr, err := bk.Start("127.0.0.1:0")
	if err != nil {
		faultinject.Emit("ERR start: %v", err)
		os.Exit(1)
	}
	if _, err := bk.Announce(rc, 500*time.Millisecond, addr); err != nil {
		faultinject.Emit("ERR announce: %v", err)
		os.Exit(1)
	}
	faultinject.Emit("READY %s %d", addr, bk.Generation())
	select {} // serve until the parent SIGKILLs us
}

// tenantTraffic drives one tenant's call loop against a session,
// tagging every call with a unique ID from its own ID space and
// classifying each outcome against the backend ledger.
type tenantTraffic struct {
	s      *lrpc.BrokerSession
	ledger *execRecorder
	idBase uint64
	seq    uint64

	mu        sync.Mutex
	successes []uint64 // IDs that resolved without error
	vouched   []uint64 // IDs that failed with the non-execution vouch
	unknown   []uint64 // IDs that failed without a vouch (may have run once)
}

func (tt *tenantTraffic) callOnce() error {
	tt.seq++
	id := tt.idBase | tt.seq
	args := make([]byte, 8)
	binary.LittleEndian.PutUint64(args, id)
	_, err := tt.s.Call(0, args)
	tt.mu.Lock()
	switch {
	case err == nil:
		tt.successes = append(tt.successes, id)
	case errors.Is(err, lrpc.ErrNotExecuted):
		tt.vouched = append(tt.vouched, id)
	default:
		tt.unknown = append(tt.unknown, id)
	}
	tt.mu.Unlock()
	return err
}

// audit checks every recorded outcome against the ledger: successes ran
// exactly once, vouched failures ran zero times, unvouched failures ran
// at most once.
func (tt *tenantTraffic) audit(t *testing.T, label string) {
	t.Helper()
	tt.mu.Lock()
	defer tt.mu.Unlock()
	for _, id := range tt.successes {
		if n := tt.ledger.count(id); n != 1 {
			t.Errorf("%s: successful call %#x executed %d times, want 1", label, id, n)
		}
	}
	for _, id := range tt.vouched {
		if n := tt.ledger.count(id); n != 0 {
			t.Errorf("%s: vouched-unexecuted call %#x executed %d times, want 0", label, id, n)
		}
	}
	for _, id := range tt.unknown {
		if n := tt.ledger.count(id); n > 1 {
			t.Errorf("%s: unvouched call %#x executed %d times, want <= 1", label, id, n)
		}
	}
}

func parseReady(t *testing.T, line string, err error) (addr string, gen uint64) {
	t.Helper()
	if err != nil {
		t.Fatalf("broker child handshake: %v", err)
	}
	var fields = strings.Fields(line)
	if len(fields) != 3 || fields[0] != "READY" {
		t.Fatalf("broker child handshake line %q", line)
	}
	if _, err := fmt.Sscanf(fields[2], "%d", &gen); err != nil {
		t.Fatalf("broker child generation %q: %v", fields[2], err)
	}
	return fields[1], gen
}

// TestBrokerKillRestartMidTraffic: SIGKILL the broker process while two
// tenants are mid-traffic, restart it, and prove the plane's headline
// guarantees — every tenant reattaches to the new generation, no call
// double-executes, and written-but-unacknowledged frames surface as
// errors rather than silent retries.
func TestBrokerKillRestartMidTraffic(t *testing.T) {
	if faultinject.IsChild(brokerRole) {
		t.Skip("child role runs only its own test")
	}
	c := newHACluster(t, 3, 0x9001)
	c.leaderIdx(10 * time.Second)

	ledger := newExecRecorder()
	sys := lrpc.NewSystem()
	if _, err := sys.Export(ledgerInterface(ledger)); err != nil {
		t.Fatal(err)
	}
	backend, err := lrpc.StartNetServer(sys, "127.0.0.1:0", lrpc.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()

	env := []string{
		brokerRegistryEnv + "=" + strings.Join(c.addrs, ","),
		brokerBackendEnv + "=" + backend.Addr(),
	}
	child, err := faultinject.StartChild("TestBrokerChildRole", brokerRole, env...)
	if err != nil {
		t.Fatal(err)
	}
	defer child.Kill()
	line1, rerr1 := child.ReadLine(15 * time.Second)
	_, gen1 := parseReady(t, line1, rerr1)

	mkTenant := func(name string, idBase uint64) *tenantTraffic {
		rc := registry.NewClient(c.addrs, registry.ClientOpts{
			CallTimeout: 400 * time.Millisecond,
			OpTimeout:   5 * time.Second,
		})
		t.Cleanup(func() { rc.Close() })
		s, err := lrpc.SuperviseBroker(lrpc.BrokerTenantOpts{
			Tenant:   name,
			Service:  "bench.echo",
			Registry: rc,
			Net: lrpc.DialOptions{
				CallTimeout:    2 * time.Second,
				RedialAttempts: 2,
				BackoffInitial: 5 * time.Millisecond,
				BackoffMax:     50 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatalf("tenant %s: %v", name, err)
		}
		t.Cleanup(func() { s.Close() })
		return &tenantTraffic{s: s, ledger: ledger, idBase: idBase}
	}
	tenants := []*tenantTraffic{
		mkTenant("team-a", 0xA<<32),
		mkTenant("team-b", 0xB<<32),
	}

	// Continuous traffic: each tenant loops until told to stop; errors
	// during the outage are expected and classified, never fatal.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, tt := range tenants {
		tt := tt
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tt.callOnce()
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	waitSuccesses := func(want int) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			ok := true
			for _, tt := range tenants {
				tt.mu.Lock()
				n := len(tt.successes)
				tt.mu.Unlock()
				if n < want {
					ok = false
				}
			}
			if ok {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("tenants did not reach %d successes in time", want)
	}
	waitSuccesses(20)

	// SIGKILL mid-traffic: no goodbye, no flush — the OS reclaims the
	// broker while tenant calls are in flight. (Kill reaps the child, so
	// "signal: killed" is the expected wait status, not a failure.)
	child.Kill()
	time.Sleep(100 * time.Millisecond) // let the outage actually bite

	child2, err := faultinject.StartChild("TestBrokerChildRole", brokerRole, env...)
	if err != nil {
		t.Fatal(err)
	}
	defer child2.Kill()
	line2, rerr2 := child2.ReadLine(15 * time.Second)
	addr2, gen2 := parseReady(t, line2, rerr2)
	if gen2 == gen1 {
		t.Fatalf("restarted broker kept generation %d", gen1)
	}

	// Recovery: both tenants must reattach and resume clean successes.
	pre := make([]int, len(tenants))
	for i, tt := range tenants {
		tt.mu.Lock()
		pre[i] = len(tt.successes)
		tt.mu.Unlock()
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for i, tt := range tenants {
			tt.mu.Lock()
			n := len(tt.successes)
			tt.mu.Unlock()
			if n < pre[i]+20 {
				ok = false
			}
		}
		if ok {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	for i, tt := range tenants {
		st := tt.s.Stats()
		if st.Reattaches < 1 {
			t.Errorf("tenant %d never reattached: stats %+v", i, st)
		}
		if st.Generation != gen2 {
			t.Errorf("tenant %d on generation %d, want %d", i, st.Generation, gen2)
		}
		tt.mu.Lock()
		post := len(tt.successes)
		tt.mu.Unlock()
		if post < pre[i]+20 {
			t.Errorf("tenant %d made no progress after restart (%d -> %d)", i, pre[i], post)
		}
		tt.audit(t, fmt.Sprintf("tenant %d", i))
	}
	if d := ledger.doubles(); len(d) != 0 {
		t.Fatalf("double executions: %#x", d)
	}

	// With traffic quiesced, the new broker's gauges are balanced and
	// both tenants show up as reattached on the new generation.
	info, snaps, err := lrpc.BrokerStats(addr2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != gen2 || len(snaps) != 2 {
		t.Fatalf("restarted broker stats: %+v %+v", info, snaps)
	}
	for _, ts := range snaps {
		if ts.InFlight != 0 {
			t.Errorf("tenant %s gauge unbalanced after quiesce: in_flight=%d", ts.Tenant, ts.InFlight)
		}
		if ts.Reattaches < 1 {
			t.Errorf("tenant %s not counted as reattached: %+v", ts.Tenant, ts)
		}
	}
}

// TestBrokerLeaseExpiryReadmission: the broker dies without withdrawing
// its registration (Abort abandons the lease), the lease expires while
// it is down, and a new broker generation admits the surviving tenant —
// reattachment after ErrLeaseExpired-style registry state, zero doubles.
func TestBrokerLeaseExpiryReadmission(t *testing.T) {
	if faultinject.IsChild(brokerRole) {
		t.Skip("child role runs only its own test")
	}
	c := newHACluster(t, 3, 0x9002)
	c.leaderIdx(10 * time.Second)
	rc := c.client("broker")
	defer rc.Close()

	ledger := newExecRecorder()
	sys := lrpc.NewSystem()
	if _, err := sys.Export(ledgerInterface(ledger)); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("bench.echo")
	if err != nil {
		t.Fatal(err)
	}

	startBroker := func() *lrpc.Broker {
		bk := lrpc.NewBroker(lrpc.BrokerOptions{PolicyPoll: -1})
		bk.SetUpstream("bench.echo", lrpc.LocalUpstream(b))
		addr, err := bk.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bk.Announce(rc, 200*time.Millisecond, addr); err != nil {
			t.Fatal(err)
		}
		return bk
	}
	bk1 := startBroker()
	gen1 := bk1.Generation()

	trc := registry.NewClient(c.addrs, registry.ClientOpts{
		CallTimeout: 400 * time.Millisecond,
		OpTimeout:   5 * time.Second,
	})
	defer trc.Close()
	tenant, err := lrpc.SuperviseBroker(lrpc.BrokerTenantOpts{
		Tenant:   "team-a",
		Service:  "bench.echo",
		Registry: trc,
		Net: lrpc.DialOptions{
			CallTimeout:    2 * time.Second,
			RedialAttempts: 2,
			BackoffInitial: 5 * time.Millisecond,
			BackoffMax:     50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tenant.Close()
	tt := &tenantTraffic{s: tenant, ledger: ledger, idBase: 0xC << 32}
	for i := 0; i < 5; i++ {
		if err := tt.callOnce(); err != nil {
			t.Fatalf("pre-crash call %d: %v", i, err)
		}
	}

	// Crash: abandon the lease (it lingers in the registry) and sever
	// every tenant connection without a goodbye.
	bk1.Abort()

	// The stale registration must expire on its own — the dead broker
	// never unregistered.
	expired := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		eps, err := rc.Resolve(lrpc.DefaultBrokerName)
		if err != nil || len(eps) == 0 {
			expired = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !expired {
		t.Fatal("abandoned broker lease never expired")
	}

	bk2 := startBroker()
	defer bk2.Close()
	if bk2.Generation() == gen1 {
		t.Fatalf("new broker kept generation %d", gen1)
	}

	// The tenant reattaches through the registry to the new generation.
	readmitted := false
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := tt.callOnce(); err == nil {
			readmitted = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !readmitted {
		t.Fatal("tenant never readmitted on the new broker generation")
	}
	for i := 0; i < 5; i++ {
		if err := tt.callOnce(); err != nil {
			t.Fatalf("post-restart call %d: %v", i, err)
		}
	}
	st := tenant.Stats()
	if st.Reattaches < 1 || st.Generation != bk2.Generation() {
		t.Fatalf("tenant stats after readmission: %+v (want reattach to gen %d)",
			st, bk2.Generation())
	}
	tt.audit(t, "tenant")
	if d := ledger.doubles(); len(d) != 0 {
		t.Fatalf("double executions: %#x", d)
	}
	_, tenants := bk2.Snapshot()
	if len(tenants) != 1 || tenants[0].InFlight != 0 || tenants[0].Reattaches != 1 {
		t.Fatalf("broker snapshot after quiesce: %+v", tenants)
	}
}

// TestBrokerAnnouncementAcrossRegistryGenerations: the broker's
// heartbeat (Announcement renew loop) survives a registry leader
// change, and a partition that outlives the lease TTL triggers a
// re-register — while tenant traffic, which never touches the registry
// on the fast path, stays undropped and undoubled throughout.
func TestBrokerAnnouncementAcrossRegistryGenerations(t *testing.T) {
	if faultinject.IsChild(brokerRole) {
		t.Skip("child role runs only its own test")
	}
	c := newHACluster(t, 3, 0x9003)
	c.leaderIdx(10 * time.Second)
	rc := c.client("broker")
	defer rc.Close()

	ledger := newExecRecorder()
	sys := lrpc.NewSystem()
	if _, err := sys.Export(ledgerInterface(ledger)); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("bench.echo")
	if err != nil {
		t.Fatal(err)
	}
	bk := lrpc.NewBroker(lrpc.BrokerOptions{PolicyPoll: -1})
	bk.SetUpstream("bench.echo", lrpc.LocalUpstream(b))
	addr, err := bk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bk.Close()
	ann, err := bk.Announce(rc, 250*time.Millisecond, addr)
	if err != nil {
		t.Fatal(err)
	}

	tenant, err := lrpc.SuperviseBroker(lrpc.BrokerTenantOpts{
		Tenant:      "team-a",
		Service:     "bench.echo",
		BrokerAddrs: []string{addr},
		Net: lrpc.DialOptions{
			CallTimeout:    2 * time.Second,
			RedialAttempts: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tenant.Close()
	tt := &tenantTraffic{s: tenant, ledger: ledger, idBase: 0xD << 32}

	stop := make(chan struct{})
	var stopOnce sync.Once
	stopTraffic := func() { stopOnce.Do(func() { close(stop) }) }
	var wg sync.WaitGroup
	defer wg.Wait() // LIFO: stopTraffic below runs first, then this drains
	defer stopTraffic()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tt.callOnce(); err != nil {
				select {
				case <-stop: // test teardown severed the conn, not the schedule
				default:
					t.Errorf("tenant call dropped during registry schedule: %v", err)
				}
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Phase 1: registry leader crash + restart. The announcement's renew
	// loop must ride the failover (renews keep advancing).
	leader := c.leaderIdx(10 * time.Second)
	renewsBefore := ann.Renews()
	c.stop(leader)
	c.leaderIdx(10 * time.Second)
	c.restart(leader)
	renewDeadline := time.Now().Add(10 * time.Second)
	for ann.Renews() <= renewsBefore && time.Now().Before(renewDeadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if ann.Renews() <= renewsBefore {
		t.Fatalf("announcement stopped renewing across leader change (stuck at %d)", renewsBefore)
	}

	// Phase 2: partition the broker's registry link past the TTL so the
	// lease expires server-side, then heal — the announcement must
	// re-register rather than renew into ErrLeaseExpired forever.
	peers := make([]string, 0, len(c.addrs))
	for i := range c.addrs {
		peers = append(peers, replicaLabel(i))
	}
	c.part.Isolate("broker", peers...)
	gone := false
	expiry := time.Now().Add(10 * time.Second)
	probe := c.client("probe")
	defer probe.Close()
	for time.Now().Before(expiry) {
		eps, err := probe.Resolve(lrpc.DefaultBrokerName)
		if errors.Is(err, lrpc.ErrNoSuchName) || (err == nil && len(eps) == 0) {
			gone = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !gone {
		t.Fatal("broker lease survived a partition longer than its TTL")
	}
	c.part.HealAll()
	rereg := time.Now().Add(10 * time.Second)
	for ann.Reregisters() == 0 && time.Now().Before(rereg) {
		time.Sleep(20 * time.Millisecond)
	}
	if ann.Reregisters() == 0 {
		t.Fatal("announcement never re-registered after its lease expired")
	}

	stopTraffic()
	wg.Wait()
	tt.audit(t, "tenant")
	if d := ledger.doubles(); len(d) != 0 {
		t.Fatalf("double executions: %#x", d)
	}
	tt.mu.Lock()
	n := len(tt.successes)
	tt.mu.Unlock()
	if n < 50 {
		t.Fatalf("tenant made only %d successful calls across the schedule", n)
	}
}
