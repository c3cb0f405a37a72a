package experiments

// The failover convergence rig: a three-replica replicated registry, two
// servers announcing one service, and a replicated supervisor driving
// calls while the rig crashes the bound server (full partition from the
// mesh, so its lease expires) and then kills the registry leader. The
// artifact records two convergence latencies — how long calls stall on a
// server crash, and how long registry writes stall on a leader kill —
// and the at-most-once ledger: the number of call ids executed more than
// once, which must be zero.

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"lrpc"
	"lrpc/internal/faultinject"
	"lrpc/registry"
)

// FailoverResult is the BENCH_pr6.json artifact.
type FailoverResult struct {
	Bench    string `json:"bench"` // "failover", the artifact discriminator
	NumCPU   int    `json:"num_cpu"`
	Replicas int    `json:"replicas"`
	Servers  int    `json:"servers"`
	// LeaderKillConvergenceMs is how long registry writes stalled after
	// the leader was killed (re-election + first committed write).
	LeaderKillConvergenceMs float64 `json:"leader_kill_convergence_ms"`
	// ServerCrashFailoverMs is how long data-path calls stalled after the
	// bound server was crashed (detect + resolve + rebind + first reply).
	ServerCrashFailoverMs float64 `json:"server_crash_failover_ms"`
	CallsTotal            int     `json:"calls_total"`
	CallsFailed           int     `json:"calls_failed"`
	Failovers             uint64  `json:"failovers"`
	// DoubleExecutions counts call ids the servers executed more than
	// once — any nonzero value is an at-most-once violation.
	DoubleExecutions int `json:"double_executions"`
}

// Failover runs the convergence rig. Deterministic in structure (seeded
// elections); the recorded latencies are wall-clock and host-dependent.
func Failover(seed int64) (res FailoverResult, err error) {
	res.Bench = "failover"
	res.NumCPU = runtime.NumCPU()

	part := faultinject.NewPartitioner()
	const n = 3
	res.Replicas = n
	res.Servers = 2

	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return res, lerr
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	labels := map[string]string{}
	for i, a := range addrs {
		labels[a] = fmt.Sprintf("replica-%d", i)
	}
	labelOf := func(addr string) string {
		if l, ok := labels[addr]; ok {
			return l
		}
		return addr
	}

	replicas := make([]*registry.Replica, n)
	defer func() {
		for _, r := range replicas {
			if r != nil {
				r.Stop()
			}
		}
	}()
	for i := range replicas {
		me := fmt.Sprintf("replica-%d", i)
		r, rerr := registry.StartReplica(i, addrs, registry.Opts{
			HeartbeatInterval:  20 * time.Millisecond,
			ElectionTimeoutMin: 100 * time.Millisecond,
			ElectionTimeoutMax: 200 * time.Millisecond,
			PeerCallTimeout:    80 * time.Millisecond,
			CommitTimeout:      2 * time.Second,
			Listener:           lns[i],
			Store:              registry.NewStore(),
			Seed:               seed + int64(i),
			DialPeer: func(peer int, addr string) (net.Conn, error) {
				return part.Dial(me, labelOf(addr), addr)
			},
		})
		if rerr != nil {
			return res, rerr
		}
		replicas[i] = r
	}

	// The at-most-once ledger, shared by both servers.
	var mu sync.Mutex
	execs := map[uint64]int{}

	mkServer := func(lab string) (*lrpc.NetServer, *registry.Client, error) {
		sys := lrpc.NewSystem()
		if _, xerr := sys.Export(&lrpc.Interface{
			Name: "bench.echo",
			Procs: []lrpc.Proc{{
				Name: "Echo", AStackSize: 256, NumAStacks: 8,
				Handler: func(c *lrpc.Call) {
					args := c.Args()
					if len(args) >= 8 {
						id := binary.LittleEndian.Uint64(args)
						mu.Lock()
						execs[id]++
						mu.Unlock()
					}
					c.SetResults(append([]byte(nil), args...))
				},
			}},
		}); xerr != nil {
			return nil, nil, xerr
		}
		ns, serr := lrpc.StartNetServer(sys, "127.0.0.1:0", lrpc.ServeOptions{})
		if serr != nil {
			return nil, nil, serr
		}
		labels[ns.Addr()] = lab
		src := registry.NewClient(addrs, registry.ClientOpts{
			CallTimeout: 300 * time.Millisecond,
			OpTimeout:   8 * time.Second,
			Seed:        seed + int64(len(lab)),
			Dial: func(addr string) (net.Conn, error) {
				return part.Dial(lab, labelOf(addr), addr)
			},
		})
		if _, aerr := ns.Announce(src, "bench.echo", time.Second); aerr != nil {
			ns.Close()
			src.Close()
			return nil, nil, aerr
		}
		return ns, src, nil
	}
	nsA, rcA, err := mkServer("server-a")
	if err != nil {
		return res, err
	}
	defer func() { nsA.Close(); rcA.Close() }()
	nsB, rcB, err := mkServer("server-b")
	if err != nil {
		return res, err
	}
	defer func() { nsB.Close(); rcB.Close() }()

	crc := registry.NewClient(addrs, registry.ClientOpts{
		CallTimeout: 300 * time.Millisecond,
		OpTimeout:   8 * time.Second,
		Seed:        seed + 100,
		Dial: func(addr string) (net.Conn, error) {
			return part.Dial("client", labelOf(addr), addr)
		},
	})
	defer crc.Close()
	sup, err := lrpc.SuperviseReplicated("bench.echo", lrpc.ReplicatedOpts{
		Registry: crc,
		Net: lrpc.DialOptions{
			CallTimeout:    500 * time.Millisecond,
			RedialAttempts: 2,
			BackoffInitial: 1 * time.Millisecond,
			BackoffMax:     10 * time.Millisecond,
			Seed:           seed + 200,
		},
		DialTCP: func(addr string) (net.Conn, error) {
			return part.Dial("client", labelOf(addr), addr)
		},
		RebindAttempts:       60,
		RebindBackoffInitial: 2 * time.Millisecond,
		RebindBackoffMax:     50 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	defer sup.Close()

	var id uint64
	call := func() bool {
		id++
		res.CallsTotal++
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], id)
		if _, cerr := sup.Call(0, buf[:]); cerr != nil {
			res.CallsFailed++
			return false
		}
		return true
	}

	// Warmup: a steady stream on the initial binding.
	for i := 0; i < 200; i++ {
		call()
	}

	// Server crash: full partition of the bound server, then time how
	// long the data path stalls before the first reply from the other
	// provider.
	bound := labelOf(sup.Endpoint().Addr)
	meshPeers := []string{"client"}
	for i := range addrs {
		meshPeers = append(meshPeers, fmt.Sprintf("replica-%d", i))
	}
	start := time.Now()
	part.Isolate(bound, meshPeers...)
	recovered := false
	for i := 0; i < 1000; i++ {
		if call() {
			recovered = true
			break
		}
	}
	if !recovered {
		return res, fmt.Errorf("client never recovered from the %s crash", bound)
	}
	res.ServerCrashFailoverMs = float64(time.Since(start).Microseconds()) / 1000

	// Leader kill: time how long registry writes stall before the new
	// leader commits one.
	lead := -1
	deadline := time.Now().Add(8 * time.Second)
	for lead < 0 {
		for i, r := range replicas {
			if r != nil && r.IsLeader() {
				lead = i
				break
			}
		}
		if lead < 0 {
			if time.Now().After(deadline) {
				return res, fmt.Errorf("no registry leader found")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	probe := registry.NewClient(addrs, registry.ClientOpts{
		CallTimeout: 300 * time.Millisecond,
		OpTimeout:   15 * time.Second,
		Seed:        seed + 300,
		Dial: func(addr string) (net.Conn, error) {
			return part.Dial("client", labelOf(addr), addr)
		},
	})
	defer probe.Close()
	start = time.Now()
	replicas[lead].Stop()
	replicas[lead] = nil
	if _, perr := probe.Register("bench.canary", 0, lrpc.Endpoint{Plane: lrpc.PlaneTCP, Addr: "10.0.0.1:1"}); perr != nil {
		return res, fmt.Errorf("registry write never converged after leader kill: %w", perr)
	}
	res.LeaderKillConvergenceMs = float64(time.Since(start).Microseconds()) / 1000

	// A final stream proves the data path rode out the leader kill.
	for i := 0; i < 200; i++ {
		call()
	}

	res.Failovers = sup.Stats().Failovers
	mu.Lock()
	for _, c := range execs {
		if c > 1 {
			res.DoubleExecutions++
		}
	}
	mu.Unlock()
	return res, nil
}

// FailoverTable renders the artifact for terminal output.
func FailoverTable(r FailoverResult) *Table {
	return &Table{
		Title:  "Failover convergence (replicated registry, client-side failover)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"replicas", fmt.Sprintf("%d", r.Replicas)},
			{"servers", fmt.Sprintf("%d", r.Servers)},
			{"server-crash failover", fmt.Sprintf("%.1f ms", r.ServerCrashFailoverMs)},
			{"leader-kill convergence", fmt.Sprintf("%.1f ms", r.LeaderKillConvergenceMs)},
			{"calls", fmt.Sprintf("%d (%d failed)", r.CallsTotal, r.CallsFailed)},
			{"failovers", fmt.Sprintf("%d", r.Failovers)},
			{"double executions", fmt.Sprintf("%d", r.DoubleExecutions)},
		},
		Notes: []string{"double executions must be 0: a frame written to a dead endpoint is never replayed"},
	}
}
