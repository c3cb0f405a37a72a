// Failover: the high-availability story — a three-replica replicated
// name service with leases, two servers announcing one interface, and a
// client whose replicated supervisor rides out a server crash AND a
// registry leader kill without restarting. Throughout, the paper's §5.3
// at-most-once rule holds: the only frames ever re-sent are ones that
// provably never reached a server, so the demo's call ledger shows every
// call id executed exactly once.
//
// Run with: go run ./examples/failover
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"lrpc"
	"lrpc/internal/faultinject"
	"lrpc/registry"
)

func main() {
	part := faultinject.NewPartitioner()
	labels := map[string]string{}
	labelOf := func(addr string) string {
		if l, ok := labels[addr]; ok {
			return l
		}
		return addr
	}

	// --- a three-replica registry on TCP loopback ---
	const n = 3
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
		labels[addrs[i]] = fmt.Sprintf("replica-%d", i)
	}
	replicas := make([]*registry.Replica, n)
	for i := range replicas {
		me := fmt.Sprintf("replica-%d", i)
		r, err := registry.StartReplica(i, addrs, registry.Opts{
			HeartbeatInterval:  25 * time.Millisecond,
			ElectionTimeoutMin: 120 * time.Millisecond,
			ElectionTimeoutMax: 240 * time.Millisecond,
			Store:              registry.NewStore(),
			Listener:           lns[i],
			Seed:               int64(i) + 1,
			DialPeer: func(peer int, addr string) (net.Conn, error) {
				return part.Dial(me, labelOf(addr), addr)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		replicas[i] = r
		defer r.Stop()
	}
	fmt.Printf("registry: %d replicas on %v\n", n, addrs)

	// --- two servers export Echo and announce it under a 500ms lease ---
	var mu sync.Mutex
	execs := map[uint64]int{}
	startServer := func(label string) *lrpc.NetServer {
		sys := lrpc.NewSystem()
		if _, err := sys.Export(&lrpc.Interface{
			Name: "demo.echo",
			Procs: []lrpc.Proc{{
				Name: "Echo", AStackSize: 256, NumAStacks: 8,
				Handler: func(c *lrpc.Call) {
					args := c.Args()
					if len(args) >= 8 {
						mu.Lock()
						execs[binary.LittleEndian.Uint64(args)]++
						mu.Unlock()
					}
					c.SetResults(append([]byte(nil), args...))
				},
			}},
		}); err != nil {
			log.Fatal(err)
		}
		ns, err := lrpc.StartNetServer(sys, "127.0.0.1:0", lrpc.ServeOptions{})
		if err != nil {
			log.Fatal(err)
		}
		labels[ns.Addr()] = label
		rc := registry.NewClient(addrs, registry.ClientOpts{
			Dial: func(addr string) (net.Conn, error) {
				return part.Dial(label, labelOf(addr), addr)
			},
		})
		if _, err := ns.Announce(rc, "demo.echo", 500*time.Millisecond); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: serving demo.echo on %s, lease announced\n", label, ns.Addr())
		return ns
	}
	nsA := startServer("server-a")
	defer nsA.Close()
	nsB := startServer("server-b")
	defer nsB.Close()

	// --- the client: one supervisor over all three registry endpoints ---
	crc := registry.NewClient(addrs, registry.ClientOpts{
		Dial: func(addr string) (net.Conn, error) {
			return part.Dial("client", labelOf(addr), addr)
		},
	})
	defer crc.Close()
	sup, err := lrpc.SuperviseReplicated("demo.echo", lrpc.ReplicatedOpts{
		Registry: crc,
		DialTCP: func(addr string) (net.Conn, error) {
			return part.Dial("client", labelOf(addr), addr)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sup.Close()

	var id uint64
	call := func() error {
		id++
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], id)
		_, err := sup.Call(0, buf[:])
		return err
	}
	for i := 0; i < 5; i++ {
		if err := call(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("client: 5 calls ok via %s (%s)\n",
		sup.Endpoint(), labelOf(sup.Endpoint().Addr))

	// --- crash the bound server: full partition, renewals included ---
	bound := labelOf(sup.Endpoint().Addr)
	peers := []string{"client"}
	for i := range addrs {
		peers = append(peers, fmt.Sprintf("replica-%d", i))
	}
	part.Isolate(bound, peers...)
	fmt.Printf("\n*** %s crashed (partitioned from client and registry) ***\n", bound)
	start := time.Now()
	if err := call(); err != nil {
		log.Fatalf("call after crash: %v", err)
	}
	fmt.Printf("client: failed over to %s (%s) in %v — same binding object, no restart\n",
		sup.Endpoint(), labelOf(sup.Endpoint().Addr), time.Since(start).Round(time.Microsecond))

	// --- kill the registry leader mid-stream ---
	lead := -1
	for lead < 0 {
		for i, r := range replicas {
			if r != nil && r.IsLeader() {
				lead = i
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	replicas[lead].Stop()
	replicas[lead] = nil
	fmt.Printf("\n*** registry leader replica-%d killed ***\n", lead)
	for i := 0; i < 5; i++ {
		if err := call(); err != nil {
			log.Fatalf("call during election: %v", err)
		}
	}
	fmt.Println("client: 5 calls ok during the election (data path does not block on the registry)")

	// A write proves the survivors re-elected and still commit.
	probe := registry.NewClient(addrs, registry.ClientOpts{
		Dial: func(addr string) (net.Conn, error) {
			return part.Dial("client", labelOf(addr), addr)
		},
	})
	defer probe.Close()
	start = time.Now()
	if _, err := probe.Register("demo.canary", 0, lrpc.Endpoint{Plane: lrpc.PlaneTCP, Addr: "10.0.0.1:1"}); err != nil {
		log.Fatalf("registry write after leader kill: %v", err)
	}
	fmt.Printf("registry: write committed by the new leader %v after the kill\n",
		time.Since(start).Round(time.Millisecond))

	// --- the crashed server's lease expires cluster-wide ---
	deadline := time.Now().Add(10 * time.Second)
	for {
		eps, err := probe.Resolve("demo.echo")
		if err == nil && len(eps) == 1 {
			fmt.Printf("\nregistry: %s's lease expired; demo.echo now resolves only to %s (%s)\n",
				bound, eps[0], labelOf(eps[0].Addr))
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("lease never expired: %v, %v", eps, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// --- the at-most-once ledger ---
	doubles := 0
	mu.Lock()
	for _, c := range execs {
		if c > 1 {
			doubles++
		}
	}
	executed := len(execs)
	mu.Unlock()
	st := sup.Stats()
	fmt.Printf("\nledger: %d calls issued, %d executed, %d executed twice (must be 0)\n",
		id, executed, doubles)
	fmt.Printf("supervisor: %d resolves, %d rebinds, %d failovers, bound to %s\n",
		st.Resolves, st.Rebinds, st.Failovers, st.Endpoint)
	if doubles != 0 {
		log.Fatal("at-most-once violated")
	}
}
