package lrpc

// One table over every NetClient call kind, the TCP twin of
// TestShmEveryCallKindLeavesSessionWhole. Each kind is driven against a
// scripted peer to every outcome it can reach, and after each row the
// client must be whole again — no in-flight slot held, no call left in
// the wait table — with its counters moved exactly as that kind's
// accounting promises and the error in the class the outcome promises.
// Beside it: a short bulk reply, CallBulkContext's stream contract, and
// the synchronous call's allocation count.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// netOutcome is what a scripted peer does with each request it reads.
type netOutcome int

const (
	netOK       netOutcome = iota
	netFailed              // status 1, as an older server sends: the handler failed
	netRefused             // status 2, as an older server sends: refused with the vouch of non-execution
	netChainErr            // status 4: a chain failed at stage 1
	netDeadline            // the reply waits until the caller's deadline has passed
	netSevered             // the peer closes the connection once the request is read
	netClosed              // the client is closed while the reply is held
	netUnsent              // the first connection's write fails before any byte is sent
)

var netOutcomes = []string{"ok", "status1", "status2", "chainErr", "deadline", "severed", "closed", "unsent"}

// netPeerPayload is what a scripted peer produces into a BulkOut handle.
var netPeerPayload = []byte("bulk-out payload")

// scriptedPeer serves one end of a pipe: it reads each request frame
// (and a BulkIn payload behind it), signals got, and answers as its
// outcome says. A held reply goes once release is closed.
type scriptedPeer struct {
	o       netOutcome
	got     chan struct{}
	release chan struct{}
}

func (p *scriptedPeer) serve(conn net.Conn) {
	defer conn.Close()
	w := &connWriter{timeout: 5 * time.Second, conn: conn}
	for {
		frame, err := readFrame(conn)
		if err != nil {
			return
		}
		id, _, _, oneWay, bulk, _, args, err := parseRequest(frame)
		if err != nil {
			return
		}
		var dir BulkDir
		if bulk {
			var n int64
			if dir, n, _, err = parseBulkHeader(args); err != nil {
				return
			}
			if dir == BulkIn {
				if _, err := io.CopyN(io.Discard, conn, n); err != nil {
					return
				}
			}
		}
		p.got <- struct{}{}
		if p.o == netSevered {
			return
		}
		if oneWay {
			continue
		}
		switch p.o {
		case netFailed:
			writeReply(w, id, 1, []byte("handler failed"), nil)
		case netRefused:
			writeReply(w, id, 2, []byte("refused"), nil)
		case netChainErr:
			writeReply(w, id, 4, appendFailure(nil, &ChainError{Stage: 1, Executed: 1, Err: errors.New("stage failed")}, 0), nil)
		case netClosed:
			// Hold the reply until the client's Close ends the connection.
		default:
			if p.o == netDeadline {
				<-p.release
			}
			if dir == BulkOut {
				writeReply(w, id, 3, []byte("ok"), netPeerPayload)
			} else {
				writeReply(w, id, 0, []byte("ok"), nil)
			}
		}
	}
}

// netKindReq is one row's submission; each kind reads what it takes.
type netKindReq struct {
	ctx  context.Context
	args []byte
	ch   *Chain
	h    *BulkHandle
}

func TestNetEveryCallKindLeavesClientWhole(t *testing.T) {
	const (
		plain = iota
		chained
		bulkIn
		bulkOut
	)
	const (
		syncCall = iota
		asyncCall
		oneWayCall
		batchCall
		batchOneWay
	)
	wait := func(ctx context.Context, f *Future, err error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		return f.WaitContext(ctx)
	}
	type kind struct {
		name  string
		shape int
		mode  int
		run   func(c *NetClient, r netKindReq) ([]byte, error)
	}
	kinds := []kind{
		{"Call", plain, syncCall, func(c *NetClient, r netKindReq) ([]byte, error) { return c.Call(0, r.args) }},
		{"CallContext", plain, syncCall, func(c *NetClient, r netKindReq) ([]byte, error) { return c.CallContext(r.ctx, 0, r.args) }},
		{"CallChain", chained, syncCall, func(c *NetClient, r netKindReq) ([]byte, error) { return c.CallChain(r.ch) }},
		{"CallBulk/in", bulkIn, syncCall, func(c *NetClient, r netKindReq) ([]byte, error) { return c.CallBulk(0, r.args, r.h) }},
		{"CallBulk/out", bulkOut, syncCall, func(c *NetClient, r netKindReq) ([]byte, error) { return c.CallBulk(0, r.args, r.h) }},
		{"CallAsync", plain, asyncCall, func(c *NetClient, r netKindReq) ([]byte, error) {
			f, err := c.CallAsync(0, r.args)
			return wait(r.ctx, f, err)
		}},
		{"CallChainAsync", chained, asyncCall, func(c *NetClient, r netKindReq) ([]byte, error) {
			f, err := c.CallChainAsync(r.ch)
			return wait(r.ctx, f, err)
		}},
		{"CallOneWay", plain, oneWayCall, func(c *NetClient, r netKindReq) ([]byte, error) { return nil, c.CallOneWay(0, r.args) }},
		{"Batch.Call", plain, batchCall, func(c *NetClient, r netKindReq) ([]byte, error) {
			bt := c.NewBatch()
			f, err := bt.Call(0, r.args)
			if err != nil {
				return nil, err
			}
			if err := bt.Flush(); err != nil {
				f.Wait()
				return nil, err
			}
			return f.WaitContext(r.ctx)
		}},
		{"Batch.OneWay", plain, batchOneWay, func(c *NetClient, r netKindReq) ([]byte, error) {
			bt := c.NewBatch()
			if err := bt.OneWay(0, r.args); err != nil {
				return nil, err
			}
			return nil, bt.Flush()
		}},
	}

	// applies reports whether kind k can reach outcome o: a one-way has
	// no reply to fail, hold or close over, and only a chain fails as one.
	applies := func(k kind, o netOutcome) bool {
		oneWay := k.mode == oneWayCall || k.mode == batchOneWay
		switch o {
		case netFailed, netRefused, netDeadline, netClosed:
			return !oneWay
		case netChainErr:
			return k.shape == chained
		}
		return true
	}
	// input builds a row's submission and its results check.
	input := func(shape int) (netKindReq, func([]byte) error) {
		equalsOK := func(out []byte) error {
			if string(out) != "ok" {
				return fmt.Errorf("results %q, want \"ok\"", out)
			}
			return nil
		}
		switch shape {
		case chained:
			return netKindReq{ch: NewChain().Add(0, []byte("a")).Add(0, []byte("b"))}, equalsOK
		case bulkIn:
			payload := bulkPayload(4 << 10)
			h := NewBulkIn(payload)
			return netKindReq{args: []byte("in"), h: h}, func(out []byte) error {
				if err := equalsOK(out); err != nil {
					return err
				}
				if h.Transferred() != int64(len(payload)) {
					return fmt.Errorf("BulkIn transferred %d, want %d", h.Transferred(), len(payload))
				}
				return nil
			}
		case bulkOut:
			buf := make([]byte, 64)
			h := NewBulkOut(buf)
			return netKindReq{args: []byte("out"), h: h}, func(out []byte) error {
				if err := equalsOK(out); err != nil {
					return err
				}
				if n := h.Transferred(); n != int64(len(netPeerPayload)) || !bytes.Equal(buf[:n], netPeerPayload) {
					return fmt.Errorf("BulkOut transferred %d bytes %q", n, buf[:n])
				}
				return nil
			}
		}
		return netKindReq{args: []byte("args")}, equalsOK
	}
	// expect is each kind's accounting: a synchronous kind counts a call,
	// an async kind an async call, a one-way a one-way, a batch a flush and
	// its staged entry. A status 1, 2 or 4 reply is a failure, a caller
	// leaving at its deadline a timeout. An unsent frame is redialled and
	// resent. With the breaker armed at one failure, every connection-level
	// verdict a call with a reply reaches opens it, and so does a failed
	// write: the one-way kinds' sever is not such a verdict, their write
	// having succeeded.
	expect := func(k kind, o netOutcome) NetClientStats {
		var s NetClientStats
		switch k.mode {
		case syncCall:
			s.Calls = 1
		case asyncCall:
			s.AsyncCalls = 1
		case oneWayCall:
			s.OneWays = 1
		case batchCall:
			s.Batches, s.BatchedCalls, s.AsyncCalls = 1, 1, 1
		case batchOneWay:
			s.Batches, s.BatchedCalls, s.OneWays = 1, 1, 1
		}
		oneWay := k.mode == oneWayCall || k.mode == batchOneWay
		switch o {
		case netFailed, netRefused, netChainErr:
			s.Failures = 1
		case netDeadline:
			s.Timeouts = 1
		case netSevered:
			if !oneWay {
				s.BreakerOpens = 1
			}
		case netClosed:
			s.BreakerOpens = 1
		case netUnsent:
			s.BreakerOpens = 1
			if k.mode == syncCall || k.mode == asyncCall {
				s.Retries, s.Reconnects = 1, 1
			}
		}
		return s
	}
	// checkErr pins the error the caller sees for each outcome.
	checkErr := func(k kind, o netOutcome, err error) error {
		oneWay := k.mode == oneWayCall || k.mode == batchOneWay
		var re *RemoteError
		var ce *ChainError
		var good bool
		switch o {
		case netOK:
			good = err == nil
		case netFailed:
			good = errors.As(err, &re) && !errors.Is(err, ErrNotExecuted)
		case netRefused:
			good = errors.As(err, &re) && errors.Is(err, ErrNotExecuted)
		case netChainErr:
			good = errors.As(err, &ce) && ce.Stage == 1 && ce.Executed == 1
		case netDeadline:
			good = errors.Is(err, ErrCallTimeout)
		case netSevered:
			good = oneWay && err == nil || errors.Is(err, ErrConnClosed) && !errors.Is(err, ErrNotSent)
		case netClosed:
			// Close settles what it sweeps with the sentinel itself, on
			// every kind. A batch's Flush, still checking its connection
			// after the write the peer saw, may report Close first.
			good = err == ErrConnClosed || k.mode == batchCall && errors.Is(err, ErrConnClosed)
		case netUnsent:
			switch k.mode {
			case syncCall, asyncCall:
				good = err == nil
			case oneWayCall:
				// Unsent, and a lost connection like every other
				// submission path's failed write.
				good = errors.Is(err, ErrNotSent) && errors.Is(err, ErrConnClosed)
			default:
				good = errors.Is(err, ErrConnClosed)
			}
		}
		if !good {
			return fmt.Errorf("err = %v for outcome %s", err, netOutcomes[o])
		}
		return nil
	}

	for _, k := range kinds {
		for o := netOK; o <= netUnsent; o++ {
			if !applies(k, o) {
				continue
			}
			t.Run(k.name+"/"+netOutcomes[o], func(t *testing.T) {
				peer := &scriptedPeer{o: o, got: make(chan struct{}, 4), release: make(chan struct{})}
				var once sync.Once
				defer once.Do(func() { close(peer.release) })
				dials := 0
				timeout := 10 * time.Second
				if o == netDeadline {
					timeout = 50 * time.Millisecond
				}
				c, err := NewReconnectingClient("Kinds", DialOptions{
					Dial: func() (net.Conn, error) {
						cli, srv := net.Pipe()
						go peer.serve(srv)
						if dials++; o == netUnsent && dials == 1 {
							return &failFirstWriteConn{Conn: cli}, nil
						}
						return cli, nil
					},
					CallTimeout:      timeout,
					BackoffInitial:   time.Millisecond,
					BreakerThreshold: 1,
					BreakerCooldown:  time.Hour,
					Seed:             1,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				r, check := input(k.shape)
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				r.ctx = ctx
				if o == netClosed {
					go func() {
						<-peer.got
						c.Close()
					}()
				}
				out, err := k.run(c, r)
				once.Do(func() { close(peer.release) })
				if cerr := checkErr(k, o, err); cerr != nil {
					t.Error(cerr)
				} else if err == nil && k.mode != oneWayCall && k.mode != batchOneWay {
					if cerr := check(out); cerr != nil {
						t.Error(cerr)
					}
				}
				want := expect(k, o)
				for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
					c.mu.Lock()
					waiting := len(c.wait)
					c.mu.Unlock()
					got := c.Stats()
					if len(c.sem) == 0 && waiting == 0 && got == want {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("client not whole: %d in-flight slots held, %d calls waiting\nmoved %+v\nwant  %+v",
							len(c.sem), waiting, got, want)
					}
				}
			})
		}
	}
}

// TestNetShortBulkReplyFailsCaller: a status-3 reply too short to carry
// its produced count breaks the connection, and the call it answered
// fails with ErrConnClosed at once — synchronous or not — instead of
// waiting on a reply that can never come.
func TestNetShortBulkReplyFailsCaller(t *testing.T) {
	rows := []struct {
		name string
		call func(c *NetClient) error
	}{
		{"sync", func(c *NetClient) error {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_, err := c.CallContext(ctx, 0, nil)
			return err
		}},
		{"async", func(c *NetClient) error {
			f, err := c.CallAsync(0, nil)
			if err != nil {
				return err
			}
			_, err = f.Wait()
			return err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			go func() {
				defer srv.Close()
				frame, err := readFrame(srv)
				if err != nil {
					return
				}
				reply := binary.LittleEndian.AppendUint64(nil, binary.LittleEndian.Uint64(frame))
				writeFrame(srv, append(reply, 3, 0xAA, 0xBB))
				io.Copy(io.Discard, srv)
			}()
			c := NewNetClient(cli, "Short")
			defer c.Close()
			done := make(chan error, 1)
			go func() { done <- row.call(c) }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrConnClosed) {
					t.Fatalf("call answered by a short bulk reply = %v, want ErrConnClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("call still blocked 2s after a short bulk reply and its 200ms deadline")
			}
			if len(c.sem) != 0 {
				t.Fatalf("%d in-flight slots still held", len(c.sem))
			}
		})
	}
}

// TestNetCallBulkContextWaitsForStream: CallBulkContext's promise. When
// the deadline fires while the reply's payload is streaming into the
// handle's buffer, the call returns only once the last byte has landed,
// and the buffer never changes after it returns.
func TestNetCallBulkContextWaitsForStream(t *testing.T) {
	payload := bulkPayload(64 << 10)
	half := len(payload) / 2
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	cli, srv := net.Pipe()
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		defer srv.Close()
		frame, err := readFrame(srv)
		if err != nil {
			return
		}
		body := binary.LittleEndian.AppendUint64(nil, binary.LittleEndian.Uint64(frame))
		body = append(body, 3)
		body = binary.LittleEndian.AppendUint64(body, uint64(len(payload)))
		body = append(body, "r"...)
		if writeFrame(srv, body) != nil {
			return
		}
		if _, err := srv.Write(payload[:half]); err != nil {
			return
		}
		<-ctx.Done()
		time.Sleep(50 * time.Millisecond) // well past the caller's deadline
		srv.Write(payload[half:])
		io.Copy(io.Discard, srv)
	}()
	c := NewNetClient(cli, "Stream")
	defer c.Close()
	buf := make([]byte, len(payload))
	h := NewBulkOut(buf)
	res, err := c.CallBulkContext(ctx, 0, nil, h)
	landed := append([]byte(nil), buf...)
	if err != nil || string(res) != "r" || h.Transferred() != int64(len(payload)) {
		t.Fatalf("CallBulkContext = %q, %v (transferred %d); want the delivered reply", res, err, h.Transferred())
	}
	if !bytes.Equal(landed, payload) {
		t.Fatal("CallBulkContext returned before the last payload byte landed")
	}
	c.Close()
	<-peerDone
	if !bytes.Equal(buf, landed) {
		t.Fatal("the handle's buffer changed after CallBulkContext returned")
	}
}

// TestNetCallAllocs pins a synchronous Null NetClient.Call's
// allocations, client and server in one process: the call's pending
// record and its wait ride a pooled Future, not a fresh record and
// channel per call, and a frame's length word is peeked in place (no
// allocation). What is left is each side's frame, and the server's
// request and interface name.
func TestNetCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled futures")
	}
	addr, stop := startServer(t)
	defer stop()
	c, err := DialInterface("tcp", addr, "Arith")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const null = 2
	for i := 0; i < 100; i++ {
		if _, err := c.Call(null, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5000, func() {
		if _, err := c.Call(null, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("NetClient.Call = %.2f allocs per call (client and server), want at most 4", allocs)
	}
}
