package registry_test

// The registry's wire: every call carries one JSON document each way,
// and a consensus message passes one gate (decodePeer) before it touches
// a replica. These tests send what no honest peer sends — a negative
// index, a member id outside the cluster, an unknown entry kind, a
// follower acknowledging entries the leader never sent — and hold the
// replica to dropping it. The two hostile-peer tests run under -race in
// `make haftest`, the fuzz target in `make fuzz`.

import (
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lrpc"
	"lrpc/registry"
)

// TestNoBinaryCodec holds the registry to the one wire: its bodies are
// JSON documents, so no non-test file packs bytes by hand.
func TestNoBinaryCodec(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/binary"` {
				t.Errorf("%s imports encoding/binary: registry messages are JSON documents", name)
			}
		}
	}
}

// statusWithin reports r's Status, or false if it does not answer within
// d: the replica is wedged, with its lock held, and Stop would hang on
// it too.
func statusWithin(r *registry.Replica, d time.Duration) (registry.Status, bool) {
	ch := make(chan registry.Status, 1)
	go func() { ch <- r.Status() }()
	select {
	case st := <-ch:
		return st, true
	case <-time.After(d):
		return registry.Status{}, false
	}
}

// hostileTerm is far above any term a test cluster reaches: a replica
// that adopted it acted on the message carrying it.
const hostileTerm = 1 << 40

// TestHAHostileAppend: consensus messages out of range are dropped
// before they touch a follower. Its term does not move, it answers
// nothing to them, Status answers, and the cluster still commits.
func TestHAHostileAppend(t *testing.T) {
	c := newHACluster(t, 3, 17)
	rc := c.client("client")
	defer rc.Close()
	if _, err := rc.Register("svc.before", 0, tcpEp("10.0.0.1:1")); err != nil {
		t.Fatalf("register svc.before: %v", err)
	}
	victim := (c.leaderIdx(10*time.Second) + 1) % 3
	b, err := c.replicas[victim].System().Import(registry.InterfaceName)
	if err != nil {
		t.Fatal(err)
	}
	entry := `{"term":1,"kind":1,"name":"svc.hostile"}`
	for _, m := range []struct{ proc, body string }{
		{"AppendEntries", fmt.Sprintf(`{"term":%d,"prev":-1,"entries":[%s]}`, hostileTerm, entry)},
		{"AppendEntries", fmt.Sprintf(`{"term":%d,"leader":-1}`, hostileTerm)},
		{"AppendEntries", fmt.Sprintf(`{"term":%d,"leader":99}`, hostileTerm)},
		{"AppendEntries", fmt.Sprintf(`{"term":%d,"entries":[{"term":1,"kind":9}]}`, hostileTerm)},
		{"AppendEntries", fmt.Sprintf(`{"term":%d,"commit":-1}`, hostileTerm)},
		{"RequestVote", fmt.Sprintf(`{"term":%d,"cand":-1}`, hostileTerm)},
		{"RequestVote", fmt.Sprintf(`{"term":%d,"cand":99}`, hostileTerm)},
	} {
		res, err := b.CallByName(m.proc, []byte(m.body))
		if err != nil || len(res) != 0 {
			t.Errorf("%s %s: reply %q, %v; want the message dropped unanswered", m.proc, m.body, res, err)
		}
		st, ok := statusWithin(c.replicas[victim], time.Second)
		if !ok {
			c.replicas[victim] = nil // wedged: leave it out of the cleanup's Stop
			t.Fatalf("%s %s: replica %d wedged, Status did not answer within 1s", m.proc, m.body, victim)
		}
		if st.Term >= hostileTerm {
			t.Errorf("%s %s: replica %d adopted the hostile term %d", m.proc, m.body, victim, st.Term)
		}
	}
	if _, err := rc.Register("svc.after", 0, tcpEp("10.0.0.1:2")); err != nil {
		t.Fatalf("register after hostile messages: %v", err)
	}
	c.waitNames(10*time.Second, map[string]int{"svc.before": 1, "svc.after": 1})
}

// TestHALyingFollower: a peer that acknowledges entries the leader never
// sent ({ok, match: 2^40}) is not believed. The leader would otherwise
// index its log at 2^40 on its next heartbeat, on the goroutine that
// drives it, and take the process down. Replica 2 is the liar, reached
// through Opts.DialPeer; replicas 0 and 1 are a majority without it.
func TestHALyingFollower(t *testing.T) {
	var lies atomic.Int64
	liar := lrpc.NewSystem()
	if _, err := liar.Export(&lrpc.Interface{
		Name: registry.InterfaceName,
		Procs: []lrpc.Proc{
			{Name: "RequestVote", Handler: func(*lrpc.Call) {}}, // no answer, no vote
			{Name: "AppendEntries", AStackSize: 64 << 10, Handler: func(c *lrpc.Call) {
				var req struct {
					Term uint64 `json:"term"`
				}
				json.Unmarshal(c.Args(), &req)
				lies.Add(1)
				c.SetResults(fmt.Appendf(nil, `{"term":%d,"ok":true,"match":%d}`, req.Term, int64(1)<<40))
			}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	liarLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	liarSrv := lrpc.ServeNetServer(liar, liarLn, lrpc.ServeOptions{})
	defer liarSrv.Close()

	addrs := []string{"", "", "liar"}
	lns := make([]net.Listener, 2)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	var replicas []*registry.Replica
	for i, ln := range lns {
		r, err := registry.StartReplica(i, addrs, registry.Opts{
			HeartbeatInterval:  20 * time.Millisecond,
			ElectionTimeoutMin: 100 * time.Millisecond,
			ElectionTimeoutMax: 200 * time.Millisecond,
			PeerCallTimeout:    100 * time.Millisecond,
			Listener:           ln,
			Seed:               int64(31 + i),
			DialPeer: func(peer int, addr string) (net.Conn, error) {
				if peer == 2 {
					addr = liarSrv.Addr()
				}
				return net.Dial("tcp", addr)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		replicas = append(replicas, r)
	}
	rc := registry.NewClient(addrs[:2], registry.ClientOpts{OpTimeout: 10 * time.Second})
	defer rc.Close()
	if _, err := rc.Register("svc.a", 0, tcpEp("10.0.0.1:1")); err != nil {
		t.Fatalf("register svc.a: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); lies.Load() < 10; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the leader sent the liar %d AppendEntries in 10s, want 10", lies.Load())
		}
	}
	if _, err := rc.Register("svc.b", 0, tcpEp("10.0.0.1:2")); err != nil {
		t.Fatalf("register svc.b after %d lies: %v", lies.Load(), err)
	}
	for _, r := range replicas {
		st, ok := statusWithin(r, time.Second)
		if !ok {
			t.Fatalf("replica %d: Status did not answer within 1s", r.ID())
		}
		if st.Commit > st.LogLen {
			t.Errorf("replica %d: commit %d past its log of %d", r.ID(), st.Commit, st.LogLen)
		}
	}
}

// FuzzRegistryBodies feeds one replica's procedures arbitrary bodies
// through its own System: the first byte picks the procedure, the rest
// is the body. Whatever arrives, the replica must keep answering Status.
func FuzzRegistryBodies(f *testing.F) {
	// The client operations run first, while the replica leads: the noop
	// barrier is entry 1, so the registration's lease is 2. The consensus
	// messages then depose it, as a newer leader's would.
	ep := `[{"plane":"tcp","addr":"127.0.0.1:1"}]`
	for _, seed := range []struct {
		proc byte
		body string
	}{
		{2, `{"name":"svc","ttl":1000000000,"eps":` + ep + `}`}, // Register
		{4, `{"name":"svc","lease":2}`},                         // Renew
		{5, `{"name":"svc"}`},                                   // Resolve
		{6, `{}`},                                               // Status
		{3, `{"name":"svc","lease":2}`},                         // Unregister
		{0, `{"term":9,"cand":0,"last_idx":9,"last_term":9}`},   // RequestVote
		{1, `{"term":9,"entries":[{"term":9,"kind":1,"name":"svc","eps":` + ep + `}],"commit":1}`},
	} {
		f.Add(append([]byte{seed.proc}, seed.body...))
	}
	f.Add(append([]byte{1}, `{"term":9,"prev":-1,"entries":[{"term":9,"kind":1}]}`...))

	r, err := registry.StartReplica(0, []string{"127.0.0.1:0"}, registry.Opts{
		HeartbeatInterval: 10 * time.Millisecond,
		CommitTimeout:     200 * time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}
	wedged := false
	f.Cleanup(func() {
		if !wedged {
			r.Stop()
		}
	})
	// A lone replica elects itself; wait, so the honest writes commit.
	for deadline := time.Now().Add(5 * time.Second); !r.IsLeader(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			f.Fatal("a one-replica cluster elected no leader in 5s")
		}
	}
	b, err := r.System().Import(registry.InterfaceName)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		b.Call(int(data[0])%7, data[1:]) // errors are answers too; only a wedge fails
		if _, ok := statusWithin(r, time.Second); !ok {
			wedged = true
			t.Fatalf("replica wedged after proc %d body %q", data[0]%7, data[1:])
		}
	})
}
