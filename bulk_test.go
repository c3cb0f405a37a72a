package lrpc

// Tests for the bulk-data plane (bulk.go) on the in-process and TCP
// transports, plus the large-payload seam fixes that ride with it: the
// uniform oversized-argument contract, the MaxOOBSize reply boundary,
// and the server-side oversized-results guard. The shared-memory
// plane's bulk tests live in bulk_linux_test.go.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// bulkTestIface exercises every handler-side bulk accessor:
//
//	0 Sum:  u64 byte-sum of the bulk payload | u64 payload length
//	1 Fill: writes args[0:4] (u32 n) pattern bytes through BulkWriter
//	2 Sink: accepts anything, returns nothing
//	3 Huge: returns exactly MaxOOBSize result bytes
//	4 Over: returns MaxOOBSize+1 result bytes
func bulkTestIface() *Interface {
	return &Interface{
		Name: "Bulk",
		Procs: []Proc{
			{Name: "Sum", Handler: func(c *Call) {
				var sum uint64
				for _, b := range c.Bulk() {
					sum += uint64(b)
				}
				res := c.ResultsBuf(16)
				binary.LittleEndian.PutUint64(res[0:8], sum)
				binary.LittleEndian.PutUint64(res[8:16], uint64(c.BulkLen()))
			}},
			{Name: "Fill", Handler: func(c *Call) {
				n := int(binary.LittleEndian.Uint32(c.Args()[0:4]))
				if n > c.BulkCap() {
					n = c.BulkCap()
				}
				w := c.BulkWriter()
				chunk := make([]byte, 8192)
				for written := 0; written < n; {
					k := min(len(chunk), n-written)
					for i := 0; i < k; i++ {
						chunk[i] = bulkPattern(written + i)
					}
					if _, err := w.Write(chunk[:k]); err != nil {
						return
					}
					written += k
				}
				c.ResultsBuf(0)
			}},
			{Name: "Sink", Handler: func(c *Call) { c.ResultsBuf(0) }},
			{Name: "Huge", Handler: func(c *Call) {
				buf := c.ResultsBuf(MaxOOBSize)
				buf[0], buf[MaxOOBSize-1] = 0xA5, 0x5A
			}},
			{Name: "Over", Handler: func(c *Call) {
				c.ResultsBuf(MaxOOBSize + 1)
			}},
		},
	}
}

func bulkPattern(i int) byte { return byte(i*7 + 13) }

func bulkPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = bulkPattern(i)
	}
	return p
}

func bulkSum(p []byte) uint64 {
	var sum uint64
	for _, b := range p {
		sum += uint64(b)
	}
	return sum
}

func checkFillPattern(t *testing.T, got []byte) {
	t.Helper()
	for i, b := range got {
		if b != bulkPattern(i) {
			t.Fatalf("fill pattern diverges at byte %d: %#x != %#x", i, b, bulkPattern(i))
		}
	}
}

// bulkCaller abstracts the three call surfaces the bulk tests run
// against (Binding, NetClient, ShmClient via the linux test file).
type bulkCaller interface {
	CallBulk(proc int, args []byte, h *BulkHandle) ([]byte, error)
}

// runBulkSuite drives the transport-independent bulk contract against
// one call surface.
func runBulkSuite(t *testing.T, c bulkCaller, size int) {
	t.Helper()
	payload := bulkPayload(size)
	want := bulkSum(payload)

	// Buffer-backed BulkIn.
	h := NewBulkIn(payload)
	res, err := c.CallBulk(0, nil, h)
	if err != nil {
		t.Fatalf("bulk-in: %v", err)
	}
	if got := binary.LittleEndian.Uint64(res[0:8]); got != want {
		t.Fatalf("bulk-in sum %d, want %d", got, want)
	}
	if got := binary.LittleEndian.Uint64(res[8:16]); got != uint64(size) {
		t.Fatalf("handler saw %d payload bytes, want %d", got, size)
	}
	if h.Transferred() != int64(size) {
		t.Fatalf("Transferred %d, want %d", h.Transferred(), size)
	}

	// Stream-backed BulkIn (the io.Reader path).
	h = NewBulkReader(bytes.NewReader(payload), int64(size))
	res, err = c.CallBulk(0, nil, h)
	if err != nil {
		t.Fatalf("bulk-in reader: %v", err)
	}
	if got := binary.LittleEndian.Uint64(res[0:8]); got != want {
		t.Fatalf("bulk-in reader sum %d, want %d", got, want)
	}

	// Buffer-backed BulkOut.
	out := make([]byte, size)
	args := binary.LittleEndian.AppendUint32(nil, uint32(size))
	h = NewBulkOut(out)
	if _, err := c.CallBulk(1, args, h); err != nil {
		t.Fatalf("bulk-out: %v", err)
	}
	if h.Transferred() != int64(size) {
		t.Fatalf("bulk-out Transferred %d, want %d", h.Transferred(), size)
	}
	checkFillPattern(t, out)

	// Stream-backed BulkOut (the io.Writer path), asking for less than
	// the handle's capacity to check the produced length flows back.
	var sink bytes.Buffer
	partial := size / 2
	args = binary.LittleEndian.AppendUint32(nil, uint32(partial))
	h = NewBulkWriter(&sink, int64(size))
	if _, err := c.CallBulk(1, args, h); err != nil {
		t.Fatalf("bulk-out writer: %v", err)
	}
	if h.Transferred() != int64(partial) || sink.Len() != partial {
		t.Fatalf("bulk-out writer moved %d/%d bytes, want %d", h.Transferred(), sink.Len(), partial)
	}
	checkFillPattern(t, sink.Bytes())

	// A nil handle degrades to a plain call.
	if _, err := c.CallBulk(2, []byte("plain"), nil); err != nil {
		t.Fatalf("nil handle: %v", err)
	}

	// An oversized handle is rejected before any transfer.
	big := &BulkHandle{dir: BulkIn, src: bytes.NewReader(nil), size: MaxBulkSize + 1}
	if _, err := c.CallBulk(0, nil, big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized handle: %v", err)
	}
}

func TestBulkInProc(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(bulkTestIface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Bulk")
	if err != nil {
		t.Fatal(err)
	}
	runBulkSuite(t, b, 1<<20)

	// The in-process plane passes the caller's buffer by reference: the
	// handler must observe caller memory, not a copy.
	payload := bulkPayload(64 << 10)
	alias := &Interface{
		Name: "BulkAlias",
		Procs: []Proc{{Name: "Probe", Handler: func(c *Call) {
			segs := c.BulkSegments()
			res := c.ResultsBuf(1)
			if len(segs) == 1 && len(segs[0]) > 0 && &segs[0][0] == &payload[0] {
				res[0] = 1
			}
		}}},
	}
	if _, err := sys.Export(alias); err != nil {
		t.Fatal(err)
	}
	ab, err := sys.Import("BulkAlias")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ab.CallBulk(0, nil, NewBulkIn(payload))
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 1 {
		t.Fatal("in-process bulk-in payload was copied; expected by-reference aliasing")
	}
}

func startBulkServer(t *testing.T) string {
	t.Helper()
	sys := NewSystem()
	if _, err := sys.Export(bulkTestIface()); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sys.ServeNetwork(l)
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

func TestBulkTCP(t *testing.T) {
	addr := startBulkServer(t)
	c, err := DialInterface("tcp", addr, "Bulk")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runBulkSuite(t, c, 1<<20)

	// The connection must survive a rejected bulk request and keep
	// serving pipelined calls.
	if _, err := c.CallBulk(0, nil, NewBulkIn(bulkPayload(4096))); err != nil {
		t.Fatalf("bulk after suite: %v", err)
	}
}

// TestBulkTCPOversizedResults pins the plain-path seam fix: a handler
// producing more than MaxOOBSize result bytes must surface as a clean
// RemoteError carrying ErrTooLarge's text — not as a oversized reply
// frame that kills the whole pipelined connection.
func TestBulkTCPOversizedResults(t *testing.T) {
	addr := startBulkServer(t)
	c, err := DialInterface("tcp", addr, "Bulk")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(4, nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, ErrTooLarge.Error()) {
		t.Fatalf("oversized results: %v", err)
	}
	// The connection is still alive.
	if _, err := c.Call(2, []byte("still here")); err != nil {
		t.Fatalf("call after oversized results: %v", err)
	}
}

// TestChainOversizedResultVouch: a chain whose final result outgrows
// MaxOOBSize ran every stage, and its failure record says so over TCP
// and through a broker: no stage that ran is vouched as not run, so a
// caller resuming from the vouch runs nothing twice.
func TestChainOversizedResultVouch(t *testing.T) {
	nc, err := DialInterface("tcp", startBulkServer(t), "Bulk")
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	sys := NewSystem()
	if _, err := sys.Export(bulkTestIface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Bulk")
	if err != nil {
		t.Fatal(err)
	}
	bk := NewBroker(BrokerOptions{})
	bk.SetUpstream("Bulk", LocalUpstream(b))
	addr, err := bk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bk.Close() })
	bs, err := SuperviseBroker(BrokerTenantOpts{Tenant: "t", Service: "Bulk", BrokerAddrs: []string{addr},
		Net: DialOptions{CallTimeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bs.Close() })
	for name, call := range map[string]func(*Chain) ([]byte, error){"tcp": nc.CallChain, "broker": bs.CallChain} {
		_, err := call(NewChain().Add(2, nil).Add(4, nil)) // Sink, then Over
		var ce *ChainError
		if !errors.As(err, &ce) || ce.Stage != 1 || ce.Executed != 2 {
			t.Errorf("%s: oversized chain result = %v, want stage 1 with 2 executed", name, err)
		}
		if !errors.Is(err, ErrTooLarge) || errors.Is(err, ErrNotExecuted) {
			t.Errorf("%s: oversized chain result classified %v", name, err)
		}
	}
}

// TestMaxOOBReplyBoundary pins the maxFrame headroom audit: a reply
// carrying exactly MaxOOBSize results must round-trip on the sync,
// async, and batched paths.
func TestMaxOOBReplyBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 3×16 MiB replies")
	}
	addr := startBulkServer(t)
	c, err := DialInterface("tcp", addr, "Bulk")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	check := func(res []byte, err error, path string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(res) != MaxOOBSize || res[0] != 0xA5 || res[MaxOOBSize-1] != 0x5A {
			t.Fatalf("%s: %d result bytes", path, len(res))
		}
	}
	res, err := c.Call(3, nil)
	check(res, err, "sync")

	f, err := c.CallAsync(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err = f.Wait()
	check(res, err, "async")

	batch := c.NewBatch()
	bf, err := batch.Call(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err = bf.Wait()
	check(res, err, "batched")
}

// TestRequestSizeBoundary pins the client-side pre-wire frame check: a
// request that cannot fit maxFrame fails with ErrTooLarge before any
// wire activity instead of breaking the connection, on every
// submission path.
func TestRequestSizeBoundary(t *testing.T) {
	addr := startBulkServer(t)
	// A name long enough that name + MaxOOBSize args overflows the
	// frame headroom even though the args alone are legal.
	longName := strings.Repeat("n", 2048)
	c, err := DialInterface("tcp", addr, longName)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	args := make([]byte, MaxOOBSize)
	if _, err := c.Call(0, args); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("sync: %v", err)
	}
	if _, err := c.CallAsync(0, args); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("async: %v", err)
	}
	if err := c.CallOneWay(0, args); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("one-way: %v", err)
	}
	batch := c.NewBatch()
	if _, err := batch.Call(0, args); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("batched: %v", err)
	}
	if _, err := c.CallBulk(0, args, NewBulkIn(nil)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("bulk: %v", err)
	}
}

// boundaryOps runs one plane's submission surfaces for the
// cross-transport size table and returns the observed error class.
type boundaryPlane struct {
	name   string
	call   func(args []byte) error
	async  func(args []byte) error
	oneWay func(args []byte) error
}

// runBoundaryTable asserts the README error matrix's size rows: every
// plane classifies len(args) ≤ MaxOOBSize as success and anything
// larger as ErrTooLarge, identically for Call, CallAsync, and
// CallOneWay. sizes carries plane-relevant boundary points (the shm
// caller adds slotSize±1).
func runBoundaryTable(t *testing.T, p boundaryPlane, sizes []int) {
	t.Helper()
	classify := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, ErrTooLarge):
			return "too-large"
		default:
			return fmt.Sprintf("unexpected(%v)", err)
		}
	}
	for _, size := range sizes {
		want := "ok"
		if size > MaxOOBSize {
			want = "too-large"
		}
		args := make([]byte, size)
		for op, fn := range map[string]func([]byte) error{
			"call": p.call, "async": p.async, "oneway": p.oneWay,
		} {
			if got := classify(fn(args)); got != want {
				t.Errorf("%s/%s size %d: classified %s, want %s", p.name, op, size, got, want)
			}
		}
	}
}

func boundarySizes(slotSize int) []int {
	return []int{slotSize - 1, slotSize, slotSize + 1, MaxOOBSize, MaxOOBSize + 1}
}

func TestBoundarySizeTableInProcAndTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("moves multiple 16 MiB payloads")
	}
	sys := NewSystem()
	if _, err := sys.Export(bulkTestIface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Bulk")
	if err != nil {
		t.Fatal(err)
	}
	wait := func(f *Future, err error) error {
		if err != nil {
			return err
		}
		_, err = f.Wait()
		return err
	}
	runBoundaryTable(t, boundaryPlane{
		name:   "inproc",
		call:   func(a []byte) error { _, err := b.Call(2, a); return err },
		async:  func(a []byte) error { return wait(b.CallAsync(2, a)) },
		oneWay: func(a []byte) error { return b.CallOneWay(2, a) },
	}, boundarySizes(4096))

	addr := startBulkServer(t)
	c, err := DialInterface("tcp", addr, "Bulk")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runBoundaryTable(t, boundaryPlane{
		name:   "tcp",
		call:   func(a []byte) error { _, err := c.Call(2, a); return err },
		async:  func(a []byte) error { return wait(c.CallAsync(2, a)) },
		oneWay: func(a []byte) error { return c.CallOneWay(2, a) },
	}, boundarySizes(4096))
}

// TestBulkHandleValidation covers the handle constructors' contract
// checks without any transport.
func TestBulkHandleValidation(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(bulkTestIface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Bulk")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CallBulk(0, nil, &BulkHandle{}); err == nil {
		t.Error("zero-direction handle accepted")
	}
	if _, err := b.CallBulk(0, nil, &BulkHandle{dir: BulkIn, src: failingReader{}, size: 16}); err == nil {
		t.Error("failing source accepted")
	}
	// Empty payloads are legal in both directions.
	if _, err := b.CallBulk(0, nil, NewBulkIn(nil)); err != nil {
		t.Errorf("empty bulk-in: %v", err)
	}
	if _, err := b.CallBulk(2, nil, NewBulkOut(nil)); err != nil {
		t.Errorf("empty bulk-out: %v", err)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
