package registry_test

// Fault-schedule tests for the replicated registry plane: kill-leader,
// partition, rolling restart, lease expiry, and the mesh invariant
// (registry convergence + at-most-once call semantics across failover).
// Every schedule is seeded and runs under -race via `make haftest`.
// Timings are generous: the CI host may be a single CPU with the race
// detector multiplying every scheduling latency.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"lrpc"
	"lrpc/internal/faultinject"
	"lrpc/registry"
)

func replicaLabel(i int) string { return fmt.Sprintf("replica-%d", i) }

// haCluster is the registry-replica harness: pre-bound listeners pin
// each replica's address across restarts, stores carry consensus state
// across restarts, and every connection in the mesh routes through one
// Partitioner so any link can be cut.
type haCluster struct {
	t        *testing.T
	seed     int64
	part     *faultinject.Partitioner
	addrs    []string
	stores   []*registry.Store
	replicas []*registry.Replica
}

func newHACluster(t *testing.T, n int, seed int64) *haCluster {
	t.Helper()
	c := &haCluster{
		t:        t,
		seed:     seed,
		part:     faultinject.NewPartitioner(),
		addrs:    make([]string, n),
		stores:   make([]*registry.Store, n),
		replicas: make([]*registry.Replica, n),
	}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen replica %d: %v", i, err)
		}
		lns[i] = ln
		c.addrs[i] = ln.Addr().String()
		c.stores[i] = registry.NewStore()
	}
	for i := 0; i < n; i++ {
		c.start(i, lns[i])
	}
	t.Cleanup(func() {
		for _, r := range c.replicas {
			if r != nil {
				r.Stop()
			}
		}
	})
	return c
}

func (c *haCluster) opts(id int, ln net.Listener) registry.Opts {
	return registry.Opts{
		HeartbeatInterval:  30 * time.Millisecond,
		ElectionTimeoutMin: 150 * time.Millisecond,
		ElectionTimeoutMax: 300 * time.Millisecond,
		PeerCallTimeout:    120 * time.Millisecond,
		CommitTimeout:      3 * time.Second,
		Listener:           ln,
		Store:              c.stores[id],
		Seed:               c.seed + int64(id),
		DialPeer: func(peer int, addr string) (net.Conn, error) {
			return c.part.Dial(replicaLabel(id), replicaLabel(peer), addr)
		},
	}
}

func (c *haCluster) start(i int, ln net.Listener) {
	c.t.Helper()
	r, err := registry.StartReplica(i, c.addrs, c.opts(i, ln))
	if err != nil {
		c.t.Fatalf("start replica %d: %v", i, err)
	}
	c.replicas[i] = r
}

func (c *haCluster) stop(i int) {
	c.t.Helper()
	if c.replicas[i] != nil {
		c.replicas[i].Stop()
		c.replicas[i] = nil
	}
}

// restart brings replica i back on its original address with its
// durable store intact (a process restart, not a fresh member).
func (c *haCluster) restart(i int) {
	c.t.Helper()
	var ln net.Listener
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err = net.Listen("tcp", c.addrs[i])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("relisten replica %d on %s: %v", i, c.addrs[i], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.start(i, ln)
}

// client builds a registry client whose connections dial from the given
// mesh label (so partitions can strand it).
func (c *haCluster) client(label string) *registry.Client {
	return registry.NewClient(c.addrs, c.registryClientOpts(label))
}

func (c *haCluster) registryClientOpts(label string) registry.ClientOpts {
	return registry.ClientOpts{
		CallTimeout: 400 * time.Millisecond,
		OpTimeout:   10 * time.Second,
		Seed:        c.seed + 1000,
		Dial: func(addr string) (net.Conn, error) {
			return c.part.Dial(label, c.labelOf(addr), addr)
		},
	}
}

func (c *haCluster) labelOf(addr string) string {
	for i, a := range c.addrs {
		if a == addr {
			return replicaLabel(i)
		}
	}
	return addr
}

// leaderIdx polls until some live replica reports leadership.
func (c *haCluster) leaderIdx(timeout time.Duration) int {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, r := range c.replicas {
			if r != nil && r.IsLeader() {
				return i
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.t.Fatalf("no registry leader within %v", timeout)
	return -1
}

// waitNames blocks until every live replica's applied state lists
// exactly the given provider counts (and no other names).
func (c *haCluster) waitNames(timeout time.Duration, want map[string]int) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		ok := true
		last = ""
		for i, r := range c.replicas {
			if r == nil {
				continue
			}
			st := r.Status()
			if !namesMatch(st.Names, want) {
				ok = false
			}
			last += fmt.Sprintf("\n  replica %d: names=%v term=%d role=%s leader=%d commit=%d applied=%d loglen=%d",
				i, summarize(st.Names), st.Term, st.Role, st.Leader, st.Commit, st.Applied, st.LogLen)
		}
		if ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.t.Fatalf("replicas did not converge to %v within %v; %s", want, timeout, last)
}

func namesMatch(got map[string][]registry.Provider, want map[string]int) bool {
	if len(got) != len(want) {
		return false
	}
	for name, n := range want {
		if len(got[name]) != n {
			return false
		}
	}
	return true
}

func summarize(names map[string][]registry.Provider) map[string]int {
	out := make(map[string]int, len(names))
	for n, ps := range names {
		out[n] = len(ps)
	}
	return out
}

func tcpEp(addr string) lrpc.Endpoint {
	return lrpc.Endpoint{Plane: lrpc.PlaneTCP, Addr: addr}
}

// TestHAKillLeader: bindings registered before a leader crash survive
// it, writes succeed through the new leader, and the restarted replica
// catches back up to the full state.
func TestHAKillLeader(t *testing.T) {
	c := newHACluster(t, 3, 42)
	rc := c.client("client")
	defer rc.Close()

	if _, err := rc.Register("svc.a", 0, tcpEp("10.0.0.1:1")); err != nil {
		t.Fatalf("register svc.a: %v", err)
	}
	lead := c.leaderIdx(10 * time.Second)
	c.stop(lead)

	// The cluster re-elects and accepts writes again.
	if _, err := rc.Register("svc.b", 0, tcpEp("10.0.0.2:1")); err != nil {
		t.Fatalf("register svc.b after leader kill: %v", err)
	}
	c.waitNames(10*time.Second, map[string]int{"svc.a": 1, "svc.b": 1})

	// The restarted replica replays its log and converges too.
	c.restart(lead)
	c.waitNames(10*time.Second, map[string]int{"svc.a": 1, "svc.b": 1})

	eps, err := rc.Resolve("svc.a")
	if err != nil || len(eps) != 1 || eps[0].Addr != "10.0.0.1:1" {
		t.Fatalf("resolve svc.a = %v, %v", eps, err)
	}
}

// TestHAPartition: a leader cut off from both followers cannot commit
// (stale-leader writes are rejected by the quorum-freshness check), the
// majority side elects and serves, and healing converges all replicas.
func TestHAPartition(t *testing.T) {
	c := newHACluster(t, 3, 7)
	rc := c.client("client")
	defer rc.Close()

	if _, err := rc.Register("svc.p", 0, tcpEp("10.0.0.1:1")); err != nil {
		t.Fatalf("register svc.p: %v", err)
	}
	lead := c.leaderIdx(10 * time.Second)
	for i := range c.replicas {
		if i != lead {
			c.part.Block(replicaLabel(lead), replicaLabel(i))
		}
	}

	// The isolated leader goes stale: after an election period without
	// quorum contact it must refuse writes so the client sweeps onward.
	staleRC := registry.NewClient([]string{c.addrs[lead]}, registry.ClientOpts{
		CallTimeout: 400 * time.Millisecond,
		OpTimeout:   2 * time.Second,
		Dial: func(addr string) (net.Conn, error) {
			return c.part.Dial("client", c.labelOf(addr), addr)
		},
	})
	defer staleRC.Close()
	time.Sleep(400 * time.Millisecond) // let the freshness window lapse
	if _, err := staleRC.Register("svc.stale", 0, tcpEp("10.9.9.9:1")); err == nil {
		t.Fatal("stale leader accepted a write while partitioned from quorum")
	} else if !errors.Is(err, lrpc.ErrRegistryUnavailable) {
		t.Fatalf("stale-leader write error = %v, want ErrRegistryUnavailable", err)
	}

	// The majority side keeps serving writes.
	if _, err := rc.Register("svc.q", 0, tcpEp("10.0.0.2:1")); err != nil {
		t.Fatalf("register svc.q during partition: %v", err)
	}

	c.part.HealAll()
	c.waitNames(10*time.Second, map[string]int{"svc.p": 1, "svc.q": 1})

	// Exactly one leader after healing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := 0
		for _, r := range c.replicas {
			if r != nil && r.IsLeader() {
				n++
			}
		}
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expected exactly one leader after heal, found %d", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHARollingRestart: restarting every replica in sequence (durable
// stores intact) never loses a committed binding and never blocks
// writes, and the final cluster converges on everything written.
func TestHARollingRestart(t *testing.T) {
	c := newHACluster(t, 3, 99)
	rc := c.client("client")
	defer rc.Close()

	want := map[string]int{}
	reg := func(name string) {
		t.Helper()
		if _, err := rc.Register(name, 0, tcpEp("10.0.0.1:1")); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		want[name] = 1
	}
	reg("svc.r0")
	for i := 0; i < len(c.replicas); i++ {
		c.stop(i)
		reg(fmt.Sprintf("svc.r%d", i+1)) // two survivors still commit
		c.restart(i)
		// Wait for the restarted replica to catch up before taking the
		// next one down, or the cluster would lose quorum.
		c.waitNames(10*time.Second, want)
	}
	c.waitNames(10*time.Second, want)
}

// TestHALeaseExpiry: a registration whose holder stops renewing is
// expired by the leader and the binding disappears from every replica;
// a holder that heartbeats (Announcement) stays registered; explicit
// Close withdraws immediately; renewing a dead lease reports
// ErrLeaseExpired.
func TestHALeaseExpiry(t *testing.T) {
	c := newHACluster(t, 3, 11)
	rc := c.client("client")
	defer rc.Close()

	lease, err := rc.Register("svc.leased", 300*time.Millisecond, tcpEp("10.0.0.1:1"))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	// No renewals: the lease must expire from EVERY replica via the log.
	c.waitNames(10*time.Second, map[string]int{})

	if err := rc.Renew("svc.leased", lease); !errors.Is(err, lrpc.ErrLeaseExpired) {
		t.Fatalf("renew of expired lease = %v, want ErrLeaseExpired", err)
	}

	// A heartbeating holder survives many TTLs.
	ann, err := lrpc.AnnounceEndpoint(rc, "svc.kept", 600*time.Millisecond, tcpEp("10.0.0.2:1"))
	if err != nil {
		t.Fatalf("announce: %v", err)
	}
	time.Sleep(1500 * time.Millisecond)
	if eps, err := rc.Resolve("svc.kept"); err != nil || len(eps) != 1 {
		t.Fatalf("resolve under renewal = %v, %v (renews=%d)", eps, err, ann.Renews())
	}
	if ann.Renews() == 0 {
		t.Fatal("announcement performed no renewals")
	}
	// Explicit withdrawal beats the TTL.
	if err := ann.Close(); err != nil {
		t.Fatalf("announcement close: %v", err)
	}
	c.waitNames(10*time.Second, map[string]int{})

	// At least one replica (the leader) logged the expiry.
	var expiries uint64
	for _, r := range c.replicas {
		if r != nil {
			expiries += r.Expiries()
		}
	}
	if expiries == 0 {
		t.Fatal("no replica recorded a lease expiry")
	}
}

// --- the mesh invariant test ---

// execRecorder counts handler executions per call id across all servers:
// the at-most-once ledger.
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

// doubles returns every id executed more than once.
func (r *execRecorder) doubles() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []uint64
	for id, n := range r.execs {
		if n > 1 {
			out = append(out, id)
		}
	}
	return out
}

// newEchoSystem exports svc.echo: args carry an 8-byte call id that the
// handler records and echoes.
func newEchoSystem(t *testing.T, rec *execRecorder) *lrpc.System {
	t.Helper()
	sys := lrpc.NewSystem()
	_, err := sys.Export(&lrpc.Interface{
		Name: "svc.echo",
		Procs: []lrpc.Proc{{
			Name:       "Echo",
			AStackSize: 256,
			NumAStacks: 8,
			Handler: func(c *lrpc.Call) {
				args := c.Args()
				if len(args) >= 8 {
					rec.record(binary.LittleEndian.Uint64(args))
				}
				c.SetResults(append([]byte(nil), args...))
			},
		}},
	})
	if err != nil {
		t.Fatalf("export echo: %v", err)
	}
	return sys
}

// TestHAMeshInvariant is the end-to-end schedule: two servers announce
// one service into a three-replica registry; a replicated supervisor
// drives calls while the schedule crashes a server (partition from
// everything, so its lease expires), kills the registry leader, heals
// the first server back in, and crashes the second. Invariants: the
// client keeps making progress in every phase, no call id is ever
// executed twice, every client-observed success executed exactly once,
// and the registry converges with the dead server's binding expired
// from every replica.
func TestHAMeshInvariant(t *testing.T) {
	c := newHACluster(t, 3, 1234)
	rec := newExecRecorder()

	labels := map[string]string{}
	for i, a := range c.addrs {
		labels[a] = replicaLabel(i)
	}
	labelOf := func(addr string) string {
		if l, ok := labels[addr]; ok {
			return l
		}
		return addr
	}

	const leaseTTL = 600 * time.Millisecond

	// Two servers announce the same service name (multi-provider).
	startServer := func(label string) (*lrpc.NetServer, *registry.Client) {
		t.Helper()
		sys := newEchoSystem(t, rec)
		ns, err := lrpc.StartNetServer(sys, "127.0.0.1:0", lrpc.ServeOptions{})
		if err != nil {
			t.Fatalf("start %s: %v", label, err)
		}
		labels[ns.Addr()] = label
		src := registry.NewClient(c.addrs, registry.ClientOpts{
			CallTimeout: 400 * time.Millisecond,
			OpTimeout:   10 * time.Second,
			Seed:        int64(len(label)),
			Dial: func(addr string) (net.Conn, error) {
				return c.part.Dial(label, labelOf(addr), addr)
			},
		})
		if _, err := ns.Announce(src, "svc.echo", leaseTTL); err != nil {
			t.Fatalf("announce %s: %v", label, err)
		}
		return ns, src
	}
	nsA, rcA := startServer("server-a")
	defer func() { nsA.Close(); rcA.Close() }()
	nsB, rcB := startServer("server-b")
	defer func() { nsB.Close(); rcB.Close() }()

	// crash partitions a server from the whole mesh: its lease stops
	// renewing (and expires), and its data path to the client is cut.
	crash := func(label string) {
		peers := []string{"client"}
		for i := range c.addrs {
			peers = append(peers, replicaLabel(i))
		}
		c.part.Isolate(label, peers...)
	}
	heal := func(label string) {
		c.part.Heal(label, "client")
		for i := range c.addrs {
			c.part.Heal(label, replicaLabel(i))
		}
	}

	crc := c.client("client")
	defer crc.Close()
	sup, err := lrpc.SuperviseReplicated("svc.echo", lrpc.ReplicatedOpts{
		Registry: crc,
		Net: lrpc.DialOptions{
			CallTimeout:    500 * time.Millisecond,
			RedialAttempts: 2,
			BackoffInitial: 2 * time.Millisecond,
			BackoffMax:     20 * time.Millisecond,
			Seed:           5,
		},
		DialTCP: func(addr string) (net.Conn, error) {
			return c.part.Dial("client", labelOf(addr), addr)
		},
		RebindAttempts:       60,
		RebindBackoffInitial: 5 * time.Millisecond,
		RebindBackoffMax:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("SuperviseReplicated: %v", err)
	}
	defer sup.Close()

	observed := map[uint64]bool{} // ids the client saw succeed
	var id uint64
	runPhase := func(phase string, calls int, minOK int) {
		t.Helper()
		ok := 0
		for i := 0; i < calls; i++ {
			id++
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], id)
			res, err := sup.Call(0, buf[:])
			if err == nil {
				if len(res) != 8 || binary.LittleEndian.Uint64(res) != id {
					t.Fatalf("phase %s: call %d echoed %x", phase, id, res)
				}
				observed[id] = true
				ok++
			}
			time.Sleep(2 * time.Millisecond)
		}
		if ok < minOK {
			t.Fatalf("phase %s: only %d/%d calls succeeded (want >= %d); endpoint=%v",
				phase, ok, calls, minOK, sup.Endpoint())
		}
	}

	// Phase 1: steady state.
	runPhase("steady", 60, 55)

	// Phase 2: crash whichever server the client is bound to; calls must
	// fail over to the survivor without double-executing anything.
	bound := labelOf(sup.Endpoint().Addr)
	crash(bound)
	runPhase("server-crash", 60, 40)

	// Phase 3: kill the registry leader; data-path calls keep flowing and
	// the surviving server's lease survives the election (leader grace).
	lead := c.leaderIdx(10 * time.Second)
	c.stop(lead)
	runPhase("leader-kill", 40, 30)

	// Phase 4: heal the crashed server; its announcement re-registers
	// (fresh lease after expiry). Then crash the other server: the client
	// must fail over back.
	heal(bound)
	deadline := time.Now().Add(15 * time.Second)
	probe := c.client("client")
	defer probe.Close()
	for {
		eps, err := probe.Resolve("svc.echo")
		if err == nil && len(eps) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed server never re-registered: %v, %v", eps, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	var other string
	if bound == "server-a" {
		other = "server-b"
	} else {
		other = "server-a"
	}
	crash(other)
	runPhase("failback", 60, 40)

	// Recovery: restart the dead replica. While the second server stays
	// crashed its lease must expire from EVERY replica, leaving exactly
	// one provider (the first server, re-announced after healing).
	c.restart(lead)
	c.waitNames(15*time.Second, map[string]int{"svc.echo": 1})

	// Heal the second server too: its renew loop finds the lease dead,
	// re-registers, and the registry converges back to two providers.
	heal(other)
	c.waitNames(15*time.Second, map[string]int{"svc.echo": 2})

	// The schedule must actually have exercised failover: once off the
	// crashed server, once back.
	if st := sup.Stats(); st.Failovers < 2 {
		t.Fatalf("expected >= 2 failovers, got %+v", st)
	}

	// At-most-once ledger: no id ever ran twice, and every observed
	// success ran exactly once.
	if d := rec.doubles(); len(d) != 0 {
		t.Fatalf("double-executed call ids: %v", d)
	}
	for sid := range observed {
		if n := rec.count(sid); n != 1 {
			t.Fatalf("call %d observed as executed but ledger shows %d executions", sid, n)
		}
	}
}
