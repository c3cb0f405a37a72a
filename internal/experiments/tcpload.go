package experiments

// The TCP load rig: the server loop under the traffic one closed-loop
// caller never produces — several callers multiplexed on one connection,
// a short call sharing its connection with a slow one, many connections
// at once, one busy connection among many idle ones, and a broker
// relaying two tenants over one upstream TCP connection to the backend.
// The server, the broker and the callers share one process, so the rows
// compare builds against each other, not against the cross-process
// tcp-small workload.

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lrpc"
	"lrpc/internal/stats"
)

// TCPLoadRow is one traffic shape's reading.
type TCPLoadRow struct {
	Shape   string `json:"shape"`
	Conns   int    `json:"conns"`   // client connections to the server under test
	Callers int    `json:"callers"` // closed-loop callers across them
	// CallsPerSec counts every caller's completed calls.
	CallsPerSec float64 `json:"calls_per_s"`
	// P50us and P99us are over the measured callers only: every caller,
	// or the short-call victim where the shape has one.
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	Failed int     `json:"failed"`
}

// TCPLoadResult is the rig's artifact.
type TCPLoadResult struct {
	Bench  string       `json:"bench"` // "tcpload", the artifact discriminator
	NumCPU int          `json:"num_cpu"`
	Rows   []TCPLoadRow `json:"rows"`
}

// TCPLoadWait is the slow procedure's hold in the shapes that mix one in.
const TCPLoadWait = 500 * time.Microsecond

// TCPLoadSpin is the busy procedure's hold: shorter than the server
// loop's bound on what it serves on a connection's reader.
const TCPLoadSpin = 20 * time.Microsecond

// tcpLoadInterface is proc 0, Null; proc 1, Wait, which sleeps for the
// microseconds named by its u32 argument; and proc 2, Spin, which keeps
// its CPU busy for them.
func tcpLoadInterface() *lrpc.Interface {
	return &lrpc.Interface{Name: "Load", Procs: []lrpc.Proc{
		{Name: "Null", AStackSize: 8, NumAStacks: 64, Handler: func(*lrpc.Call) {}},
		{Name: "Wait", AStackSize: 8, NumAStacks: 64, Handler: func(c *lrpc.Call) {
			if a := c.Args(); len(a) >= 4 {
				time.Sleep(time.Duration(binary.LittleEndian.Uint32(a)) * time.Microsecond)
			}
		}},
		{Name: "Spin", AStackSize: 8, NumAStacks: 64, Handler: func(c *lrpc.Call) {
			if a := c.Args(); len(a) >= 4 {
				d := time.Duration(binary.LittleEndian.Uint32(a)) * time.Microsecond
				for start := time.Now(); time.Since(start) < d; {
				}
			}
		}},
	}}
}

func holdArgs(d time.Duration) []byte {
	return binary.LittleEndian.AppendUint32(nil, uint32(d/time.Microsecond))
}

// loadCaller is one closed-loop caller; measured callers' latencies make
// the row's percentiles.
type loadCaller struct {
	call     func() error
	measured bool
}

// runShape drives every caller for dur and reads the row.
func runShape(shape string, conns int, callers []loadCaller, dur time.Duration) TCPLoadRow {
	var (
		stop   atomic.Bool
		calls  atomic.Int64
		failed atomic.Int64
		mu     sync.Mutex
		lats   []float64
		wg     sync.WaitGroup
	)
	for _, c := range callers {
		wg.Add(1)
		go func(c loadCaller) {
			defer wg.Done()
			var mine []float64
			for !stop.Load() {
				start := time.Now()
				if err := c.call(); err != nil {
					failed.Add(1)
					continue
				}
				calls.Add(1)
				if c.measured {
					mine = append(mine, float64(time.Since(start))/float64(time.Microsecond))
				}
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}(c)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	sort.Float64s(lats)
	return TCPLoadRow{
		Shape: shape, Conns: conns, Callers: len(callers),
		CallsPerSec: float64(calls.Load()) / dur.Seconds(),
		P50us:       stats.Percentile(lats, 50),
		P99us:       stats.Percentile(lats, 99),
		Failed:      int(failed.Load()),
	}
}

// TCPLoad runs every shape for dur against one in-process server.
func TCPLoad(dur time.Duration) (res TCPLoadResult, err error) {
	res.Bench = "tcpload"
	res.NumCPU = runtime.NumCPU()
	sys := lrpc.NewSystem()
	if _, err = sys.Export(tcpLoadInterface()); err != nil {
		return res, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer ln.Close()
	go sys.ServeNetwork(ln)
	addr := ln.Addr().String()

	var clients []*lrpc.NetClient
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	dial := func() (*lrpc.NetClient, error) {
		c, derr := lrpc.DialInterface("tcp", addr, "Load")
		if derr == nil {
			clients = append(clients, c)
		}
		return c, derr
	}
	null := func(c *lrpc.NetClient) func() error {
		return func() error { _, err := c.Call(0, nil); return err }
	}
	hold := func(c *lrpc.NetClient, proc int, d time.Duration) func() error {
		args := holdArgs(d)
		return func() error { _, err := c.Call(proc, args); return err }
	}

	// One connection: one caller, then four, then two busy ones, four
	// slow ones, and a short-call victim beside one slow caller.
	one, err := dial()
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, runShape("null, 1 caller", 1, []loadCaller{{null(one), true}}, dur))
	four := make([]loadCaller, 4)
	for i := range four {
		four[i] = loadCaller{null(one), true}
	}
	res.Rows = append(res.Rows, runShape("null, shared by 4", 1, four, dur))
	spin := hold(one, 2, TCPLoadSpin)
	res.Rows = append(res.Rows, runShape(fmt.Sprintf("spin %v, shared by 2", TCPLoadSpin), 1,
		[]loadCaller{{spin, true}, {spin, true}}, dur))
	for i := range four {
		four[i] = loadCaller{hold(one, 1, TCPLoadWait/2), true}
	}
	res.Rows = append(res.Rows, runShape(fmt.Sprintf("wait %v, shared by 4", TCPLoadWait/2), 1, four, dur))
	res.Rows = append(res.Rows, runShape("null beside a wait, shared", 1,
		[]loadCaller{{null(one), true}, {hold(one, 1, TCPLoadWait), false}}, dur))

	// Many connections: one caller on each, then one caller among idle
	// connections.
	const many, idle = 32, 256
	var spread []loadCaller
	for i := 0; i < many; i++ {
		c, derr := dial()
		if derr != nil {
			return res, derr
		}
		spread = append(spread, loadCaller{null(c), true})
	}
	res.Rows = append(res.Rows, runShape(fmt.Sprintf("null, %d conns", many), many, spread, dur))
	for len(clients) < idle {
		if _, err = dial(); err != nil {
			return res, err
		}
	}
	res.Rows = append(res.Rows, runShape("null, 1 caller", len(clients), []loadCaller{{null(one), true}}, dur))

	// A broker relaying two tenants over one upstream connection: the
	// victim's short calls share the backend connection with the
	// aggressor's slow ones.
	up, err := lrpc.DialInterface("tcp", addr, "Load")
	if err != nil {
		return res, err
	}
	bk := lrpc.NewBroker(lrpc.BrokerOptions{PolicyPoll: -1})
	bk.SetUpstream("Load", up) // the broker closes it
	baddr, err := bk.Start("127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer bk.Close()
	tenant := func(name string) (*lrpc.BrokerSession, error) {
		return lrpc.SuperviseBroker(lrpc.BrokerTenantOpts{
			Tenant: name, Service: "Load", BrokerAddrs: []string{baddr},
			Net: lrpc.DialOptions{CallTimeout: 2 * time.Second},
		})
	}
	victim, err := tenant("victim")
	if err != nil {
		return res, err
	}
	defer victim.Close()
	aggr, err := tenant("aggressor")
	if err != nil {
		return res, err
	}
	defer aggr.Close()
	slow := holdArgs(TCPLoadWait)
	res.Rows = append(res.Rows, runShape("broker: null beside a wait", 1, []loadCaller{
		{func() error { _, err := victim.Call(0, nil); return err }, true},
		{func() error { _, err := aggr.Call(1, slow); return err }, false},
	}, dur))
	return res, nil
}

// TCPLoadTable renders the artifact for terminal output.
func TCPLoadTable(r TCPLoadResult) *Table {
	t := &Table{
		Title:  "TCP server loop under load (in-process server, loopback)",
		Header: []string{"shape", "conns", "callers", "calls/s", "p50 µs", "p99 µs", "failed"},
		Notes: []string{
			"percentiles are over every caller, or over the null victim where a wait shares its connection",
			fmt.Sprintf("wait sleeps in the handler; conns counts connections to the server under test; %d CPUs", r.NumCPU),
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Shape, fmt.Sprint(row.Conns), fmt.Sprint(row.Callers),
			fmt.Sprintf("%.0f", row.CallsPerSec), us1(row.P50us), us1(row.P99us), fmt.Sprint(row.Failed)})
	}
	return t
}
