package lrpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// This file is the wall-clock cross-machine path of the paper's section
// 5.1: a conventional network RPC transport over real sockets. A
// TransparentBinding hides the local/remote decision behind the same Call
// signature, deciding "at the earliest possible moment — the first
// instruction of the stub" via the binding's remote bit.
//
// Unlike the paper's prototype, the transport is built to survive the
// network's uncommon cases: the client redials a broken connection with
// capped exponential backoff plus jitter, bounds its in-flight window
// (backpressure instead of unbounded pipelining), enforces per-call
// deadlines, and retries only those calls that never reached the wire (so
// a non-idempotent procedure is never executed twice). The server bounds
// per-connection handler concurrency and applies write deadlines so a
// stalled peer cannot pin goroutines forever.
//
// One loop, two routes. connLoop is the only server loop: it reads and
// parses each frame, asks the connection's route to open it — on the
// read loop, in request order, before a bulk payload is read or a
// goroutine is spent — and serves what was opened: a lone short local
// request on the reader itself (run to completion, DESIGN §5.18),
// anything else on a bounded goroutine. ServeNetwork's route imports the
// named interface once per connection and dispatches into it; the
// broker's route (broker.go) is its tenant policy gate in front of an
// upstream call. The client has one of each too: every call with a reply
// is one submission (NetClient.submit) registering one pending record,
// which whoever claims it back settles (NetClient.settle), and every
// request frame comes from one encoder (appendRequestFrame). Both sides
// write through one connWriter per connection.
//
// Wire protocol (all integers little-endian):
//
//	frame   = u32 length, payload
//	request = u64 callID, u16 nameLen, name, u32 proc, args
//	reply   = u64 callID, u8 status, body   (status 0: body = results;
//	                                         status 4: body = the failure
//	                                         record, below)
//
// Status 4 carries every failure, of a plain call or a chain, as the one
// failure record every plane sends (appendFailure/parseFailure, chain.go):
// u32 stage, u32 executed, u32 sentinel code, error text. A plain call is
// stage 0, and executed 0 is the server's vouch that the handler never
// ran. Statuses 1 (error text) and 2 (error text and the vouch) are read
// from older servers only; no current server sends them.
//
// The top bit of the proc word is the one-way flag (wireFlagOneWay): a
// request carrying it receives NO reply frame — the handler still runs
// (at most once), execution errors are dropped and counted on the
// server, and the callID is ignored. The flag is masked off before the
// procedure index is used, so a hostile flag bit can neither address a
// different procedure nor make the server consume a reply path.
//
// Bit 30 of the proc word is the bulk flag (wireFlagBulk, bulk.go): the
// request's args begin with a bulk header — u8 direction, u64 payload
// length (BulkIn) or reserved capacity (BulkOut) — and, for BulkIn, the
// payload itself streams on the connection immediately AFTER the frame,
// outside the frame envelope, so it is never bounded by maxFrame and
// never buffered through the frame parser. A bulk call's reply uses
// status 3 ("ok + bulk"): body = u64 produced, results; the produced
// payload bytes stream after the reply frame the same way. Frames stay
// small; payloads move as raw chunked stream the kernel can splice.
//
// Bit 29 of the proc word is the chain flag (wireFlagChain, chain.go):
// the request's args are an LBC1 chain descriptor — a pipeline of
// dependent calls the server executes entirely in its own domain, one
// frame in, one reply out. The proc bits are unused (each stage names
// its own procedure inside the descriptor). A chain reply is status 0
// (body = the final stage's results) or status 4, whose failure record
// names the failing stage and the executed-through vouch, so at-most-once
// classification stays exact per stage even across the wire.

// ErrConnClosed reports a call on a closed network binding, or a call
// whose connection died after the request may have reached the server
// (not safe to retry) or could not be re-established within the redial
// budget.
var ErrConnClosed = errors.New("lrpc: network connection closed")

// ErrNotSent marks the subset of failures where the request provably
// never reached the wire: no byte of the frame entered the connection.
// These are the only transport failures a failover layer may retry
// against another endpoint without risking double execution (§5.3's
// at-most-once contract); errors.Is(err, ErrNotSent) is the test.
// Matching errors still also match their underlying cause (typically
// ErrConnClosed).
var ErrNotSent = errors.New("lrpc: request never sent")

// ErrNotExecuted matches remote rejections the server vouches happened
// before the handler ran — revoked or unknown interfaces, admission
// overload, A-stack exhaustion (a failure record with executed 0). Like
// ErrNotSent
// failures, these are safe for a failover layer to retry elsewhere:
// errors.Is(err, ErrNotExecuted) is the test, and errors.As still
// yields the *RemoteError carrying the server's text.
var ErrNotExecuted = errors.New("lrpc: call rejected before execution")

// notExecuted reports whether err proves the call never reached a
// handler, so that vouching for it on the wire (executed 0) or re-sending
// it elsewhere cannot break at-most-once. It is the one list of such
// failures: appendFailure, the broker's relay and the replicated
// supervisor's fail-over all ask it. Each sees only part of the union
// (a server's own dispatch cannot produce the client-side sentinels; a
// policy refusal that crossed a wire already carries the vouch); the
// rest is vacuous there, not unsafe. A failure a peer reported carries
// its own vouch, and only that counts: a chain that stopped part-way did
// run its earlier stages (Executed == 0 vouches none), and a remote
// failure's code names its cause, not whether a handler ran.
func notExecuted(err error) bool {
	var ce *ChainError
	if errors.As(err, &ce) {
		return ce.Executed == 0
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.NotExecuted
	}
	return errors.Is(err, ErrNotExecuted) || // a server's wire vouch
		errors.Is(err, ErrRevoked) || // binding revoked before dispatch
		errors.Is(err, ErrNotExported) || // name unknown at this endpoint
		errors.Is(err, ErrOverload) || // shed by admission control
		errors.Is(err, ErrNoAStacks) || // rejected before activation
		errors.Is(err, ErrQuotaExceeded) || // shed by the broker's tenant policy
		errors.Is(err, ErrTenantSuspended) || // refused by the broker's tenant policy
		errors.Is(err, ErrNotSent) || // no byte reached the wire
		errors.Is(err, ErrBreakerOpen) || // failed fast, nothing sent
		errors.Is(err, ErrShmUnsupported) // plane missing, nothing sent
}

// notSentError brands a transport failure as provably pre-wire. It
// matches ErrNotSent directly and its cause via Unwrap, so existing
// errors.Is(err, ErrConnClosed) checks keep working.
type notSentError struct{ cause error }

func (e *notSentError) Error() string        { return e.cause.Error() }
func (e *notSentError) Unwrap() error        { return e.cause }
func (e *notSentError) Is(target error) bool { return target == ErrNotSent }

func notSent(cause error) error { return &notSentError{cause: cause} }

// RemoteError is an error the remote side reported in its reply: the
// request crossed the wire (TCP, shm or a broker hop), the server
// rejected or failed it, and its failure record came back. Because a
// reply was received, the peer is provably alive — the circuit breaker
// counts RemoteError as success.
type RemoteError struct {
	Msg string // the remote error text, verbatim
	// NotExecuted records the server's vouch (a failure record with
	// executed 0) that the rejection happened before the handler ran.
	NotExecuted bool
	code        uint32 // the record's sentinel code (wireSentinels)
}

func (e *RemoteError) Error() string { return "lrpc: remote: " + e.Msg }

// Is lets errors.Is(err, ErrNotExecuted) see the server's vouch, and
// errors.Is(err, ErrOverload) — or any sentinel of the wire table — see
// the record's code, so a caller classifies a failure that crossed one
// (or, via a relay, several) hops as it would a local one.
func (e *RemoteError) Is(target error) bool {
	if target == ErrNotExecuted {
		return e.NotExecuted
	}
	return e.code > 0 && int(e.code) <= len(wireSentinels) && wireSentinels[e.code-1] == target
}

// maxFrame bounds a single network frame.
const maxFrame = MaxOOBSize + 1024

// wireFlagOneWay marks a request as fire-and-forget in the top bit of
// its proc word; see the wire protocol comment above.
const wireFlagOneWay = uint32(1) << 31

// wireFlagBulk marks a request that carries an out-of-frame bulk
// payload (bit 30 of the proc word); see the wire protocol comment.
const wireFlagBulk = uint32(1) << 30

// wireFlagChain marks a request whose args are a chain descriptor
// (bit 29 of the proc word); see the wire protocol comment and chain.go.
const wireFlagChain = uint32(1) << 29

// bulkReqHdrSize is the bulk header prefixed to a bulk request's args:
// u8 direction + u64 length/capacity.
const bulkReqHdrSize = 1 + 8

// reqOverhead is every request's fixed framing cost beyond the name and
// args — call id, name length, proc word — excluding the frame length
// word (maxFrame bounds the frame payload, not the length word). The
// client-side size check (checkRequestSize) accounts for it plus the
// interface name, so an oversized request is rejected with ErrTooLarge
// before any byte is written instead of tripping the server's maxFrame
// guard and killing the connection.
const reqOverhead = 8 + 2 + 4

// ServeOptions tunes ServeNetworkOpts. The zero value selects defaults.
type ServeOptions struct {
	// MaxInFlight bounds concurrently running handlers per connection;
	// once full, the read loop stops consuming requests (TCP backpressure
	// reaches the client). 0 selects 64.
	MaxInFlight int
	// WriteTimeout bounds each reply write, so a handler is never pinned
	// forever on a peer that stopped reading: a write gets at least half
	// of it and at most all of it (connWriter). 0 selects 10s.
	WriteTimeout time.Duration
	// MaxBulkBytes bounds one request's out-of-frame bulk payload (or
	// reserved BulkOut capacity); larger requests are rejected with
	// ErrTooLarge — the payload is drained first so the stream stays
	// framed. It bounds per-request server memory: up to MaxInFlight
	// payloads can be resident at once. 0 selects MaxBulkSize.
	MaxBulkBytes int64
}

func (o *ServeOptions) fill() {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.MaxBulkBytes <= 0 {
		o.MaxBulkBytes = MaxBulkSize
	}
}

// ServeNetwork serves this system's exported interfaces to remote clients
// on l with default options. It blocks until the listener fails or is
// closed; each connection is handled on its own goroutine. Remote calls
// are dispatched through the same export handlers local calls use.
func (s *System) ServeNetwork(l net.Listener) error {
	return s.ServeNetworkOpts(l, ServeOptions{})
}

// ServeNetworkOpts is ServeNetwork with explicit limits.
func (s *System) ServeNetworkOpts(l net.Listener, opts ServeOptions) error {
	opts.fill()
	defer holdPort(l.Addr())()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go newConnLoop(conn, &importRoute{s: s, maxBulk: opts.MaxBulkBytes, bindings: map[string]*Binding{}}, opts).serve()
	}
}

// trackedListener wraps a listener and remembers every accepted
// connection so an in-process shutdown can sever them. Closing a bare
// listener only stops NEW connections: the serve goroutines on accepted
// conns keep answering, so to a peer the "stopped" server looks alive —
// its client never redials and never reaches the restarted instance.
// CloseAll makes an embedded stop indistinguishable from process death.
type trackedListener struct {
	net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	sealed bool
}

func newTrackedListener(l net.Listener) *trackedListener {
	return &trackedListener{Listener: l, conns: make(map[net.Conn]struct{})}
}

func (t *trackedListener) Accept() (net.Conn, error) {
	conn, err := t.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.sealed {
		t.mu.Unlock()
		conn.Close() // raced CloseAll; the serve loop sees EOF at once
		return &trackedConn{Conn: conn, l: t}, nil
	}
	t.conns[conn] = struct{}{}
	t.mu.Unlock()
	return &trackedConn{Conn: conn, l: t}, nil
}

// CloseAll severs every accepted connection and refuses to track new
// ones. It does not close the listener itself.
func (t *trackedListener) CloseAll() {
	t.mu.Lock()
	t.sealed = true
	victims := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		victims = append(victims, c)
	}
	t.conns = make(map[net.Conn]struct{})
	t.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// trackedConn deregisters from its listener when the serve loop closes
// it, so the tracking table does not grow with connection churn.
type trackedConn struct {
	net.Conn
	l    *trackedListener
	once sync.Once
}

func (c *trackedConn) Close() error {
	c.once.Do(func() {
		c.l.mu.Lock()
		delete(c.l.conns, c.Conn)
		c.l.mu.Unlock()
	})
	return c.Conn.Close()
}

// SyscallConn is the wrapped conn's, so a served connection's reads
// probe its socket (connReader) as a bare one's do.
func (c *trackedConn) SyscallConn() (syscall.RawConn, error) {
	sc, ok := c.Conn.(syscall.Conn)
	if !ok {
		return nil, errors.ErrUnsupported
	}
	return sc.SyscallConn()
}

// request is one parsed request frame, handed by the server loop to a
// route and then to the target the route opened.
type request struct {
	callID uint64
	name   string
	proc   int
	oneWay bool
	args   []byte
	stages []ChainStage // a chain's parsed descriptor; nil for any other call

	dir     BulkDir // 0 when the request carries no bulk payload
	bulkLen int64   // BulkIn payload length or BulkOut capacity
	bulkIn  []byte  // the BulkIn payload, read once the route opened
}

// route is one connection's policy on the server loop. open runs on
// the read loop, in request order, before a bulk payload is read or a
// goroutine is spent; a refusal it returns is answered (or, one-way,
// dropped) there. trace reports the loop's events.
type route interface {
	open(req *request) (target, error)
	trace(kind TraceKind, iface string, err error)
}

// target runs an opened request (serve: its results and, for BulkOut,
// the produced payload) and gives back whatever open took (done); the
// loop calls done before any reply is written.
type target interface {
	serve(req *request) (res, bulkOut []byte, err error)
	done()
}

// refusal is a route's pre-dispatch rejection as the client will see
// it: err's text and sentinel code under the vouch of non-execution.
func refusal(err error) error {
	return &RemoteError{Msg: err.Error(), NotExecuted: true, code: wireErrCode(err)}
}

// newConnLoop builds the one TCP server loop for conn, shared by
// ServeNetworkOpts and the broker's connections; only the route differs.
// Each frame is parsed (next), opened by the route, its bulk payload
// read, and served within MaxInFlight: on the reader itself when it is
// alone and short (connLoop.read), on a spawned goroutine otherwise.
func newConnLoop(conn net.Conn, rt route, opts ServeOptions) *connLoop {
	return &connLoop{
		conn:    conn,
		br:      bufio.NewReader(connReader(conn)),
		rt:      rt,
		w:       connWriter{timeout: opts.WriteTimeout, conn: conn},
		sem:     make(chan struct{}, opts.MaxInFlight),
		closing: make(chan struct{}),
	}
}

// serve runs the loop. It returns once the connection is torn down and
// every request it read has been served.
func (l *connLoop) serve() {
	l.read()
	// This goroutine may have served a request while the watch
	// handed the loop to another reader; that reader tears it down.
	<-l.closing
	l.wg.Wait()
}

// connLoop is one connection's server loop. Exactly one goroutine at a
// time is its reader. The reader serves a lone short request itself,
// which spends no goroutine and no scheduler handoff on it; when such a
// request runs long after all, the watch starts a new reader so
// the requests behind it are not blocked.
type connLoop struct {
	conn net.Conn
	br   *bufio.Reader // every frame and BulkIn payload is read through it
	rt   route
	w    connWriter
	sem  chan struct{} // MaxInFlight slots, taken by inline and spawned requests alike
	wg   sync.WaitGroup
	// closing is the close signal to in-flight handlers: once the read
	// side has failed the connection is dead, and a handler finishing
	// afterwards must not try to write its reply into it.
	closing   chan struct{}
	closeOnce sync.Once
	// run is odd while the reader serves a request itself: the reader
	// increments it before serving and advances it with a CAS after. The
	// watch advances a count that stayed odd across a tick; the
	// reader's failed CAS then tells it the loop has a new reader.
	run     atomic.Uint64
	watched atomic.Bool // in netWatch.loops
	seen    uint64      // run at the watch's previous scan; guarded by netWatch.mu
}

// read is the loop's reader. It returns when the read side fails, having
// torn the connection down, or after serving a request during which the
// watch handed the loop to a new reader.
func (l *connLoop) read() {
	for {
		req, chain, err := l.next(maxFrame)
		if err != nil {
			break
		}
		t, rerr := openRequest(l.rt, req, chain)
		// A BulkIn payload travels on the stream right behind its frame:
		// it is consumed here, in read-loop order, whatever becomes of the
		// call — read when the call goes ahead, drained and never held
		// when it was refused — so the next frame is never parsed out of
		// the middle of a payload.
		if req.dir == BulkIn {
			if rerr == nil {
				req.bulkIn, err = readBody(l.br, int(req.bulkLen))
			} else {
				_, err = io.CopyN(io.Discard, l.br, req.bulkLen)
			}
			if err != nil {
				if rerr == nil {
					t.done()
				}
				break
			}
		}
		if rerr != nil {
			if req.oneWay {
				// No reply path exists for a one-way request: drop and
				// trace, never write.
				l.rt.trace(TraceOneWayDrop, req.name, rerr)
				continue
			}
			l.failReply(req, rerr)
			continue
		}
		// Serve bounded: once MaxInFlight requests are running the reader
		// parks here instead of taking more. A one-way request is bounded
		// by the same window — the flag frees the reply slot, not the
		// execution slot.
		l.sem <- struct{}{}
		l.wg.Add(1)
		// Run to completion when the request is alone and short: a local
		// target whose procedure last ran within inlineMax, nothing else
		// in flight, nothing read behind it. A request that arrives
		// meanwhile waits for it, so a slow procedure spawns. So does a
		// relay: its serve is an upstream round trip, and on the reader it
		// would serialise the tenant's concurrent calls.
		if b, local := t.(*Binding); !local || !b.short(req) || len(l.sem) > 1 || l.br.Buffered() > 0 {
			go l.handle(req, t)
			continue
		}
		v := l.run.Add(1)
		netWatch.enter(l)
		l.handle(req, t)
		if !l.run.CompareAndSwap(v, v+1) {
			return // the watch started a new reader while this one served
		}
	}
	close(l.closing)
	l.shut() // unblock any handler mid-write
}

// next reads and parses the loop's next request frame, of at most limit
// bytes; chain reports the chain flag, for openRequest. An error leaves
// the stream unframed: the connection cannot be read past it.
func (l *connLoop) next(limit int) (*request, bool, error) {
	frame, err := readLimitedFrame(l.br, limit)
	if err != nil {
		return nil, false, err
	}
	req := &request{}
	var bulk, chain bool
	req.callID, req.name, req.proc, req.oneWay, bulk, chain, req.args, err = parseRequest(frame)
	if err == nil && bulk {
		req.dir, req.bulkLen, req.args, err = parseBulkHeader(req.args)
	}
	return req, chain, err
}

// handle serves one opened request and writes its reply, then gives
// back its MaxInFlight slot.
func (l *connLoop) handle(req *request, t target) {
	defer l.wg.Done()
	defer func() { <-l.sem }()
	res, bulkOut, err := t.serve(req)
	t.done()
	if req.oneWay {
		return // at-most-once, no reply frame (DESIGN §5.13)
	}
	select {
	case <-l.closing:
		return // the connection died while we ran; drop the reply
	default:
	}
	if err == nil && len(res) > MaxOOBSize {
		// An oversized result frame would trip the client's maxFrame
		// guard and kill the whole pipelined connection; fail this one
		// call cleanly instead. Results beyond MaxOOBSize need the bulk
		// plane (CallBulk with BulkOut).
		err = oversizedResults(len(res))
	}
	switch {
	case err != nil:
		l.failReply(req, err)
	case req.dir == BulkOut:
		l.reply(req, 3, res, bulkOut)
	default:
		l.reply(req, 0, res, nil)
	}
}

// reply writes one reply and, on failure, tears the connection down: a
// half-dead pipe that swallows replies would otherwise strand every
// pending client call until its deadline, when closing it makes the
// client redial immediately.
func (l *connLoop) reply(req *request, status byte, body, bulk []byte) {
	if err := writeReply(&l.w, req.callID, status, body, bulk); err != nil {
		l.rt.trace(TraceWriteFail, req.name, err)
		l.shut()
	}
}

// failReply answers a failed request: status 4 and its failure record.
// A chain's record is a *ChainError's. Any other failure of a chain —
// an oversized final result, a relay's upstream lost mid-chain — vouches
// that no stage ran only when notExecuted proves it, and otherwise that
// every stage may have run, so no caller resumes a stage that did.
func (l *connLoop) failReply(req *request, err error) {
	if n := len(req.stages); n > 0 && !errors.As(err, new(*ChainError)) {
		ce := &ChainError{Stage: n - 1, Executed: n, Err: err}
		if notExecuted(err) {
			ce.Stage, ce.Executed = 0, 0
		}
		err = ce
	}
	l.reply(req, 4, appendFailure(nil, err, 0), nil)
}

func (l *connLoop) shut() { l.closeOnce.Do(func() { l.conn.Close() }) }

// inlineMax is the longest a procedure's last run may have taken for the
// server loop to serve its next request on the connection's reader
// (DESIGN §5.18). It bounds what a request read behind an inline one
// waits, except right after a procedure turns slow, when the watch
// bounds it at two ticks.
const inlineMax = 50 * time.Microsecond

// watchTick is the watch's period: a request its reader has served for
// one to two ticks is handed off, and a client connection's read role
// that has lain free for a tick goes to its background reader.
const watchTick = time.Millisecond

// netWatch is the TCP plane's one process-wide watch, a goroutine that
// ticks over two lists: the server loops whose reader has served a
// request itself since the previous scan (DESIGN §5.18), and the client
// connections whose read role is free or went free within the last tick
// (§5.19). It parks once both are empty, so at rest nothing ticks.
var netWatch = &watch{}

type watch struct {
	mu      sync.Mutex
	loops   []*connLoop
	conns   []idleConn
	running atomic.Bool
}

type idleConn struct {
	c  *NetClient
	cc *clientConn
}

// watchParking, when set, runs between the watch's last scan and its
// parking: tests act inside that window with it.
var watchParking atomic.Pointer[func()]

// enter puts l in the watch's set and starts the watch if it has parked.
// A reader calls it after incrementing l.run to serve a request itself.
// Each of its two loads pairs with a store of the watch's (DESIGN §5.11):
// either the reader sees watched or running fall and restores it, or the
// watch's load after that store sees the new count.
func (w *watch) enter(l *connLoop) {
	if !l.watched.Load() {
		w.mu.Lock()
		if !l.watched.Load() {
			l.watched.Store(true)
			w.loops = append(w.loops, l)
		}
		w.mu.Unlock()
	}
	w.start()
}

// add puts cc, whose read role has just gone free, in the watch and
// starts the watch if it has parked. c.mu is held: the watch never takes
// a client's lock while it holds its own.
func (w *watch) add(c *NetClient, cc *clientConn) {
	cc.watched = true
	w.mu.Lock()
	w.conns = append(w.conns, idleConn{c, cc})
	w.mu.Unlock()
	w.start()
}

// start starts the watch if it has parked.
func (w *watch) start() {
	if !w.running.Load() && w.running.CompareAndSwap(false, true) {
		go w.tick()
	}
}

func (w *watch) tick() {
	t := time.NewTicker(watchTick)
	defer t.Stop()
	for range t.C {
		if w.scan() {
			continue
		}
		if f := watchParking.Load(); f != nil {
			(*f)()
		}
		// Park. A reader whose increment the scan missed, or a client
		// that added a connection after it, may have found running still
		// true and started nothing; the re-scan after the store sees
		// either and resumes the watch, unless one has already started
		// another.
		w.running.Store(false)
		if !w.scan() || !w.running.CompareAndSwap(false, true) {
			return
		}
	}
}

// scan makes one pass over both lists and reports whether either still
// holds anything. Loops are scanned under w.mu; connections are visited
// outside it, since a visit takes the client's lock.
func (w *watch) scan() bool {
	w.mu.Lock()
	w.scanLoops()
	conns := w.conns
	w.conns = nil
	w.mu.Unlock()
	kept := conns[:0]
	for _, e := range conns {
		if e.c.idleCheck(e.cc) {
			kept = append(kept, e)
		}
	}
	clear(conns[len(kept):])
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conns = append(kept, w.conns...)
	return len(w.loops) > 0 || len(w.conns) > 0
}

// scanLoops starts a new reader for every loop whose reader has served
// one request since the previous scan, and drops the loops idle since
// then. w.mu is held.
func (w *watch) scanLoops() {
	for i := 0; i < len(w.loops); i++ {
		l := w.loops[i]
		v := l.run.Load()
		if v != l.seen {
			l.seen = v
			continue
		}
		if v&1 == 1 {
			if l.run.CompareAndSwap(v, v+1) {
				go l.read()
			}
			continue
		}
		l.watched.Store(false)
		if l.run.Load() != v {
			l.watched.Store(true) // its reader moved before it could see the flag fall
			continue
		}
		last := len(w.loops) - 1
		w.loops[i], w.loops[last] = w.loops[last], nil
		w.loops = w.loops[:last]
		i--
	}
}

// openRequest applies the rules every route shares, then asks the route.
// A chain's reply (or its failure record) is its at-most-once contract, so
// it cannot be one-way, and bulk payloads move on the bulk plane, not
// inside a descriptor. The descriptor is parsed here, before the route,
// so a route can price a chain by its stages and a malformed one is
// refused before anything is charged.
func openRequest(rt route, req *request, chain bool) (target, error) {
	if chain {
		if req.oneWay {
			return nil, errors.New("lrpc: a chain call cannot be one-way")
		}
		if req.dir != 0 {
			return nil, refusal(errors.New("lrpc: a chain call cannot carry a bulk payload"))
		}
		stages, err := parseChain(req.args)
		if err != nil {
			return nil, refusal(err)
		}
		req.stages = stages
	}
	return rt.open(req)
}

// importRoute is the System's route: each interface a connection names
// is imported once, and the binding is the target.
type importRoute struct {
	s        *System
	maxBulk  int64
	bindings map[string]*Binding
}

func (r *importRoute) open(req *request) (target, error) {
	if req.dir != 0 {
		if req.oneWay {
			return nil, errors.New("lrpc: one-way call cannot carry a bulk payload")
		}
		if req.bulkLen > r.maxBulk {
			r.trace(TraceBulkReject, req.name, ErrTooLarge)
			return nil, refusal(fmt.Errorf("%w: %d-byte bulk payload exceeds the server's %d-byte limit",
				ErrTooLarge, req.bulkLen, r.maxBulk))
		}
	}
	b, ok := r.bindings[req.name]
	if !ok {
		nb, err := r.s.Import(req.name)
		if err != nil {
			// Never dispatched: its failure record vouches
			// non-execution, so a failover layer may retry it elsewhere.
			return nil, err
		}
		r.bindings[req.name] = nb
		b = nb
	}
	return b, nil
}

func (r *importRoute) trace(kind TraceKind, iface string, err error) {
	r.s.emitTrace(kind, iface, "", err)
}

// serve runs one request of the server loop (execute), and how long it
// ran marks its procedure short or slow for the loop's next request.
func (b *Binding) serve(req *request) ([]byte, []byte, error) {
	start := time.Now()
	res, bulkOut, err := b.execute(req)
	if i := b.class(req); i >= 0 {
		if slow := time.Since(start) > inlineMax; b.exp.slow[i].Load() != slow {
			b.exp.slow[i].Store(slow)
		}
	}
	return res, bulkOut, err
}

// short reports whether req's procedure ran within inlineMax the last
// time a connection's request ran it; one never run is short.
func (b *Binding) short(req *request) bool {
	i := b.class(req)
	return i < 0 || !b.exp.slow[i].Load()
}

// class is req's index into its export's slow marks: its procedure, or
// the last mark for a chain; -1 for a procedure the interface lacks.
func (b *Binding) class(req *request) int {
	last := len(b.exp.slow) - 1
	switch {
	case req.stages != nil:
		return last
	case req.proc >= last:
		return -1
	}
	return req.proc
}

// execute runs req through the invocation core: a chain through
// execChain (every stage in this domain, one frame in, one reply out), a
// bulk call through dispatchBulk, anything else through Call.
func (b *Binding) execute(req *request) ([]byte, []byte, error) {
	switch {
	case req.stages != nil:
		out, cerr := b.execChain(req.stages, time.Time{})
		if cerr != nil {
			return nil, nil, cerr
		}
		return out, nil, nil
	case req.dir == BulkIn:
		res, _, err := b.dispatchBulk(req.proc, req.args, BulkIn, [][]byte{req.bulkIn}, len(req.bulkIn))
		return res, nil, err
	case req.dir == BulkOut:
		out := make([]byte, req.bulkLen)
		res, produced, err := b.dispatchBulk(req.proc, req.args, BulkOut, [][]byte{out}, 0)
		return res, out[:produced], err
	}
	res, err := b.Call(req.proc, req.args)
	if err != nil && req.oneWay {
		b.dropOneWayError(req.proc, err)
	}
	return res, nil, err
}

// done is a no-op: a binding holds nothing per request.
func (b *Binding) done() {}

// DialOptions tunes a NetClient. The zero value selects defaults.
type DialOptions struct {
	// MaxInFlight bounds the number of calls pipelined over the
	// connection at once; further calls wait for a slot (or their
	// deadline). 0 selects 128.
	MaxInFlight int
	// CallTimeout, when nonzero, is the default deadline applied to
	// Call; CallContext deadlines take precedence.
	CallTimeout time.Duration
	// WriteTimeout bounds each request write: a write gets at least half
	// of it and at most all of it, or less when the call's own deadline is
	// earlier (connWriter). 0 selects 10s.
	WriteTimeout time.Duration
	// RedialAttempts is how many consecutive failed dials a single call
	// tolerates before failing with ErrConnClosed. 0 selects 5.
	RedialAttempts int
	// BackoffInitial and BackoffMax shape the capped exponential redial
	// backoff; the actual delay is jittered uniformly over
	// [delay/2, delay]. Zero values select 10ms and 1s.
	BackoffInitial time.Duration
	BackoffMax     time.Duration
	// Seed seeds the jitter source; 0 selects a random seed.
	Seed int64
	// Dial establishes a connection. DialInterfaceOpts fills it with
	// net.Dial; fault-injection harnesses substitute flaky transports
	// here (see internal/faultinject).
	Dial func() (net.Conn, error)
	// Tracer, when set, receives TraceReconnect events on every
	// successful redial. SetTracer installs or replaces it later.
	Tracer Tracer

	// BreakerThreshold, when > 0, arms a circuit breaker on the client
	// (resilience.go): after that many consecutive connection-level
	// failures (failed dials, dead connections) the breaker opens and
	// calls fail fast with ErrBreakerOpen instead of queueing behind a
	// dead peer. After a cooldown one probe call is let through; its
	// success closes the breaker. 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the initial open interval; it doubles on every
	// re-open up to BreakerMaxCooldown and resets on recovery. Zero
	// values select 100ms and 10× the cooldown.
	BreakerCooldown    time.Duration
	BreakerMaxCooldown time.Duration
}

func (o *DialOptions) fill() {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 128
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.RedialAttempts <= 0 {
		o.RedialAttempts = 5
	}
	if o.BackoffInitial <= 0 {
		o.BackoffInitial = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.Seed == 0 {
		o.Seed = rand.Int63()
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 100 * time.Millisecond
	}
	if o.BreakerMaxCooldown <= 0 {
		o.BreakerMaxCooldown = 10 * o.BreakerCooldown
	}
}

// NetClientStats counts a client's lifetime events, for robustness
// dashboards and the lrpcbench faults driver.
type NetClientStats struct {
	Calls          uint64 // calls issued
	Failures       uint64 // calls that returned a remote error
	Timeouts       uint64 // calls abandoned at their deadline
	Reconnects     uint64 // successful redials after a connection loss
	Retries        uint64 // requests re-sent because they never reached the wire
	BreakerOpens   uint64 // times the circuit breaker opened
	BreakerRejects uint64 // calls failed fast with ErrBreakerOpen

	// Async plane (CallAsync / CallOneWay / NewBatch).
	AsyncCalls   uint64 // asynchronous submissions (incl. continuations)
	OneWays      uint64 // one-way submissions
	Batches      uint64 // Batch flushes (coalesced single-write submissions)
	BatchedCalls uint64 // entries submitted through batches
}

// NetClient is a client connection to a remote System, safe for
// concurrent use; calls are pipelined over one connection up to the
// in-flight window. When the connection breaks the client redials with
// capped exponential backoff and jitter; calls whose request never
// reached the wire are retried transparently, calls already on the wire
// fail with ErrConnClosed (the transport cannot know whether the server
// executed them).
type NetClient struct {
	name string
	opts DialOptions
	sem  chan struct{}

	closedCh chan struct{}

	mu          sync.Mutex
	w           *clientConn // the live connection; nil while there is none
	gen         uint64      // connection generation, bumps on every redial
	dialing     bool
	dialDone    chan struct{}
	lastDialErr error
	backoff     time.Duration
	rng         *rand.Rand
	nextID      uint64
	wait        map[uint64]pendingCall // written only by register
	closed      bool
	idle        time.Duration // how long a free read role waits to be handed over: watchTick, stretched only by tests

	calls      atomic.Uint64
	failures   atomic.Uint64
	timeouts   atomic.Uint64
	reconnects atomic.Uint64
	retries    atomic.Uint64

	asyncCalls   atomic.Uint64
	oneWays      atomic.Uint64
	batches      atomic.Uint64
	batchedCalls atomic.Uint64

	// readerFrames counts the reply frames read by background readers,
	// not by callers reading for themselves (DESIGN §5.19).
	readerFrames atomic.Uint64

	// br is the circuit breaker (resilience.go); nil unless
	// DialOptions.BreakerThreshold armed it.
	br *breaker

	tracer atomic.Pointer[Tracer]
}

// pendingCall is one call's linkage record (§3.1), kept by value in
// c.wait from its registration until someone claims it back out: the
// connection's reader with its reply, connBroken or Close with the
// connection, a caller leaving at its deadline, or a writer whose write
// failed.
// Whoever claims it settles it, exactly once.
type pendingCall struct {
	fut *Future // settled with the call's outcome
	gen uint64  // the connection generation the request was written on
	// bulk, when non-nil, is a synchronous bulk call's handle: a status-3
	// reply's payload streams into it directly from dispatch, which is
	// the only place the bytes behind the reply frame can be consumed in
	// order.
	bulk *BulkHandle
	// probe marks a call elected as the breaker's half-open probe: its
	// settlement carries the probe's verdict to brObserve.
	probe bool
	// chain marks a chain request: its failure record decodes to a
	// *ChainError.
	chain bool
}

// DialInterface connects to a remote System at addr (as served by
// ServeNetwork) and binds to the named interface.
func DialInterface(network, addr, name string) (*NetClient, error) {
	return DialInterfaceOpts(network, addr, name, DialOptions{})
}

// DialInterfaceOpts is DialInterface with explicit resilience options.
// The initial dial happens eagerly, so an unreachable address fails here
// rather than on the first call.
func DialInterfaceOpts(network, addr, name string, opts DialOptions) (*NetClient, error) {
	if opts.Dial == nil {
		opts.Dial = func() (net.Conn, error) { return net.Dial(network, addr) }
	}
	return NewReconnectingClient(name, opts)
}

// NewReconnectingClient builds a client around opts.Dial (which must be
// set) and dials eagerly.
func NewReconnectingClient(name string, opts DialOptions) (*NetClient, error) {
	if opts.Dial == nil {
		return nil, errors.New("lrpc: NewReconnectingClient requires DialOptions.Dial")
	}
	opts.fill()
	conn, err := opts.Dial()
	if err != nil {
		return nil, err
	}
	c := newNetClient(conn, name, opts)
	return c, nil
}

// NewNetClient wraps an established connection (useful with net.Pipe in
// tests). Without a Dial hook the client cannot reconnect: when the
// connection dies, calls fail with ErrConnClosed.
func NewNetClient(conn net.Conn, name string) *NetClient {
	return NewNetClientOpts(conn, name, DialOptions{})
}

// NewNetClientOpts is NewNetClient with explicit options (the Dial hook,
// if set, enables reconnection).
func NewNetClientOpts(conn net.Conn, name string, opts DialOptions) *NetClient {
	opts.fill()
	return newNetClient(conn, name, opts)
}

func newNetClient(conn net.Conn, name string, opts DialOptions) *NetClient {
	c := &NetClient{
		name:     name,
		opts:     opts,
		sem:      make(chan struct{}, opts.MaxInFlight),
		closedCh: make(chan struct{}),
		gen:      1,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		wait:     map[uint64]pendingCall{},
		idle:     watchTick,
	}
	if opts.BreakerThreshold > 0 {
		c.br = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.BreakerMaxCooldown)
	}
	if opts.Tracer != nil {
		c.tracer.Store(&opts.Tracer)
	}
	c.attach(conn)
	return c
}

// SetTracer installs (or, with nil, removes) a tracer receiving the
// client's TraceReconnect events: the network plane's analog of
// System.SetTracer, nil-checked with one atomic load on the redial path.
func (c *NetClient) SetTracer(t Tracer) {
	if t == nil {
		c.tracer.Store(nil)
		return
	}
	c.tracer.Store(&t)
}

func (c *NetClient) emitReconnect(gen uint64) {
	if p := c.tracer.Load(); p != nil {
		(*p).TraceEvent(TraceEvent{Kind: TraceReconnect, Iface: c.name,
			Proc: fmt.Sprintf("gen-%d", gen)})
	}
}

// emitEvent delivers one client-side trace event (breaker transitions,
// write failures) to the installed tracer, if any.
func (c *NetClient) emitEvent(kind TraceKind, err error) {
	if p := c.tracer.Load(); p != nil {
		(*p).TraceEvent(TraceEvent{Kind: kind, Iface: c.name, Err: err})
	}
}

// brFailure records one connection-level failure against the breaker and
// emits TraceBreakerOpen when it was the one that opened it.
func (c *NetClient) brFailure() {
	if c.br == nil {
		return
	}
	if c.br.failure(time.Now()) {
		c.br.opens.Add(1)
		c.emitEvent(TraceBreakerOpen, nil)
	}
}

// brObserve classifies a finished call for the breaker: a reply — even a
// remote error — proves the peer alive; a connection-level failure counts
// against it. A probe that reaches no verdict (timeout) re-opens the
// breaker, so the half-open state can never wedge.
func (c *NetClient) brObserve(probe bool, err error) {
	if c.br == nil {
		return
	}
	switch {
	// A failure record — a chain's too — is a reply: the peer provably
	// answered, whatever happened mid-chain.
	case err == nil, peerAnswered(err):
		if c.br.success() {
			c.emitEvent(TraceBreakerClose, nil)
		}
	case errors.Is(err, ErrConnClosed):
		c.brFailure()
	case probe:
		c.brFailure()
	}
}

// Stats returns a snapshot of the client's event counters.
func (c *NetClient) Stats() NetClientStats {
	st := NetClientStats{
		Calls:      c.calls.Load(),
		Failures:   c.failures.Load(),
		Timeouts:   c.timeouts.Load(),
		Reconnects: c.reconnects.Load(),
		Retries:    c.retries.Load(),
	}
	st.AsyncCalls = c.asyncCalls.Load()
	st.OneWays = c.oneWays.Load()
	st.Batches = c.batches.Load()
	st.BatchedCalls = c.batchedCalls.Load()
	if c.br != nil {
		st.BreakerOpens = c.br.opens.Load()
		st.BreakerRejects = c.br.rejects.Load()
	}
	return st
}

// clientConn is one connection of a NetClient: its writer, and the read
// role over its one bufio.Reader (DESIGN §5.19). At most one goroutine at
// a time holds the role and reads br: a synchronous caller reading for
// its own reply (the leader), or the connection's one background reader.
type clientConn struct {
	connWriter
	br   *bufio.Reader
	src  io.Reader     // what br reads: the conn's probing reader, or the conn
	gen  uint64        // the connection's generation (NetClient.gen)
	kick chan struct{} // capacity 1: wakes the background reader to re-check role and dead

	// Guarded by NetClient.mu, the wait table's lock, so the role changes
	// hands in step with the calls registered and claimed.
	role    readRole
	asked   bool      // a call that could lead registered while the role was taken
	dead    bool      // retired by connBroken or Close; its background reader exits
	left    time.Time // when the role last became free, for the watch
	watched bool      // in netWatch.conns

	unhold func() // releases the connection's local port from localPorts
}

// readRole is who reads a client connection's replies.
type readRole uint8

const (
	readFree       readRole = iota // nobody: no call pending, or a caller about to lead is writing
	readLeader                     // a synchronous caller, until its own call settles
	readBackground                 // the connection's background reader
)

// idleCheck is the watch's visit to cc. A role free for c.idle goes to
// the background reader, which blocks in Read so that an idle connection
// still notices its peer's FIN and detaches. No reply is due, so its
// read parks at once rather than probing (parkNext); nobody reads cc
// while the role is free. A role free for less stays watched, and so
// does one a leader took after it was freed within the last tick —
// callers leading one after another free it every call, and dropping
// the connection would only restart the watch. A role held since before
// that, or a retired connection, leaves the watch until the role next
// goes free (letGo).
func (c *NetClient) idleCheck(cc *clientConn) (keep bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case cc.dead || cc.role == readBackground:
	case cc.role == readLeader:
		if time.Since(cc.left) < watchTick {
			return true
		}
	case time.Since(cc.left) < c.idle:
		return true
	default:
		parkNext(cc.src)
		cc.role = readBackground
		cc.wake()
	}
	cc.watched = false
	return false
}

// attach makes conn the live connection, of generation c.gen, and starts
// its background reader. c.mu is held, or c is not yet shared.
func (c *NetClient) attach(conn net.Conn) {
	src := connReader(conn)
	cc := &clientConn{
		connWriter: connWriter{timeout: c.opts.WriteTimeout, conn: conn},
		br:         bufio.NewReader(src),
		src:        src,
		gen:        c.gen,
		kick:       make(chan struct{}, 1),
		left:       time.Now(),
		unhold:     holdPort(conn.LocalAddr()),
	}
	c.w = cc
	netWatch.add(c, cc)
	go c.background(cc)
}

// wake nudges the background reader to re-check the role and dead.
func (cc *clientConn) wake() {
	select {
	case cc.kick <- struct{}{}:
	default:
	}
}

// retire marks cc dead, which ends its background reader. c.mu is held.
func (cc *clientConn) retire() {
	cc.dead = true
	cc.unhold()
	cc.wake()
}

// lead takes cc's read role for a caller that has written its request,
// if the role is free; the caller then reads (follow) until its own call
// settles.
func (c *NetClient) lead(cc *clientConn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc.role != readFree || cc.dead {
		return false
	}
	cc.role = readLeader
	return true
}

// follow is a leader's read: it dispatches every reply frame it reads,
// to whichever call owns it, until f, its own call's future, settles.
// A read error retires the connection as the background reader's would,
// which settles f too.
func (c *NetClient) follow(cc *clientConn, f *Future) {
	for f.state.Load() == futPending {
		if err := c.dispatch(cc); err != nil {
			c.connBroken(cc, err)
			return
		}
	}
	c.mu.Lock()
	c.letGo(cc)
	c.mu.Unlock()
}

// letGo is the role holder's decision, under c.mu, once it has no reply
// of its own to wait for: a leader leaving, or the background reader
// after each frame. While calls are still pending the background reader
// holds the role. With none the role is free, and the next synchronous
// caller can lead — unless the background reader holds it and no caller
// that could lead has registered since it took it (asked). Then it stays
// in Read, the reader of deadline-carrying and async calls, which spares
// each of them a wake and a timer re-arm. It reports whether the
// background reader holds the role.
func (c *NetClient) letGo(cc *clientConn) bool {
	switch {
	case cc.dead:
		return false
	case len(c.wait) > 0:
		if cc.role != readBackground {
			cc.role = readBackground
			cc.wake()
		}
		return true
	case cc.role == readBackground && !cc.asked:
		return true
	}
	cc.role, cc.left, cc.asked = readFree, time.Now(), false
	if !cc.watched {
		netWatch.add(c, cc)
	}
	return false
}

// background is cc's background reader. It reads while it holds the
// role — handed to it by a call that does not read for itself, by a
// leader leaving pending calls, or by the watch once the role has
// lain free for the client's idle interval — and exits when cc is
// retired.
func (c *NetClient) background(cc *clientConn) {
	for c.awaitRole(cc) {
		for {
			if err := c.dispatch(cc); err != nil {
				c.connBroken(cc, err)
				return
			}
			c.readerFrames.Add(1)
			c.mu.Lock()
			mine := c.letGo(cc)
			c.mu.Unlock()
			if !mine {
				break
			}
		}
	}
}

// awaitRole parks the background reader until it holds cc's read role,
// and reports false once cc is retired. Whoever hands it the role, or
// retires cc, wakes it (clientConn.wake); it keeps no timer of its own.
func (c *NetClient) awaitRole(cc *clientConn) bool {
	for {
		c.mu.Lock()
		dead, mine := cc.dead, cc.role == readBackground
		c.mu.Unlock()
		switch {
		case dead:
			return false
		case mine:
			return true
		}
		<-cc.kick
	}
}

// dispatch reads one reply frame off cc and delivers it: claim → settle,
// a status-3 reply's payload streamed into its owner's handle first. It
// is the one reader of client reply frames, run by whoever holds cc's
// read role. An error leaves the stream unframed: the connection cannot
// be read past it.
func (c *NetClient) dispatch(cc *clientConn) error {
	frame, err := readFrame(cc.br)
	if err != nil {
		return err
	}
	if len(frame) < 9 {
		return nil
	}
	p, ok := c.claim(binary.LittleEndian.Uint64(frame[0:8]))
	var out []byte
	var cerr, broken error
	switch status, body := frame[8], frame[9:]; {
	case status == 3:
		// Bulk reply: the produced payload streams right behind the
		// frame and is consumed here, into the claimed call's handle or
		// the void, before the next frame can be parsed.
		out, cerr, broken = bulkReply(cc.br, p.bulk, body)
	case !ok: // nobody to tell, and nothing behind the frame
	case status == 0:
		out = body
		if h := p.bulk; h != nil && h.dir == BulkIn {
			h.n = h.length()
		}
	default:
		c.failures.Add(1)
		cerr = replyError(status, body, p.chain)
	}
	if ok {
		c.settle(p, out, cerr)
	}
	return broken
}

// replyError decodes a failed reply: status 4's failure record, or the
// bare text of status 1 and 2 (with 2's vouch) from an older server.
func replyError(status byte, body []byte, chain bool) error {
	if status == 4 {
		return parseFailure(body, chain)
	}
	return &RemoteError{Msg: string(body), NotExecuted: status == 2}
}

// bulkReply consumes a status-3 reply — body = u64 produced, results —
// and the produced payload streamed behind it: into h's buffer or
// writer, or the void when no caller claimed the call (nil h). A sink
// failure fails the call but drains the rest, so the connection stays
// framed; broken reports a stream that cannot be read past — a short
// body, a failed read, a payload overrunning the handle's capacity —
// which ends the connection too.
func bulkReply(r io.Reader, h *BulkHandle, body []byte) (out []byte, err, broken error) {
	produced := int64(-1)
	if len(body) >= 8 {
		produced = int64(binary.LittleEndian.Uint64(body))
	}
	switch {
	case produced < 0:
		broken = fmt.Errorf("lrpc: malformed bulk reply (%d-byte body)", len(body))
	case h == nil:
		_, broken = io.CopyN(io.Discard, r, produced)
	case produced > h.length():
		broken = fmt.Errorf("lrpc: %d-byte bulk reply exceeds the handle's %d-byte capacity", produced, h.length())
	case h.dst == nil:
		if _, broken = io.ReadFull(r, h.buf[:produced]); broken == nil {
			h.n = produced
		}
	default:
		// Writer-backed sink: chunked copy, draining past any sink failure.
		cbuf := make([]byte, 256<<10)
		for remaining := produced; remaining > 0 && broken == nil; {
			k := min(int64(len(cbuf)), remaining)
			if _, broken = io.ReadFull(r, cbuf[:k]); broken == nil && err == nil {
				if _, err = h.dst.Write(cbuf[:k]); err == nil {
					h.n += k
				}
			}
			remaining -= k
		}
	}
	switch {
	case broken != nil:
		return nil, fmt.Errorf("%w: connection lost during bulk reply: %v", ErrConnClosed, broken), broken
	case err != nil:
		return body[8:], fmt.Errorf("lrpc: bulk sink: %w", err), nil
	}
	return body[8:], nil, nil
}

// connBroken retires a dead connection: detach it (if it is still the
// current one), end its background reader, and fail every call that was
// pipelined on it. Calls on other generations are untouched.
func (c *NetClient) connBroken(w *clientConn, _ error) {
	w.conn.Close()
	c.mu.Lock()
	if c.w == w {
		c.w = nil
	}
	w.retire()
	swept := c.sweep(w.gen)
	c.mu.Unlock()
	// Settled outside the lock: a completion may fire a continuation
	// that resubmits (and takes c.mu). The request may have reached the
	// server, so this is not safe to retry.
	err := fmt.Errorf("%w: connection lost awaiting reply", ErrConnClosed)
	for _, p := range swept {
		c.settle(p, nil, err)
	}
}

// sweep claims every call of connection generation gen out of the wait
// table, or every call when gen is 0 (no live generation is). c.mu is
// held.
func (c *NetClient) sweep(gen uint64) []pendingCall {
	var swept []pendingCall
	for id, p := range c.wait {
		if gen == 0 || p.gen == gen {
			delete(c.wait, id)
			swept = append(swept, p)
		}
	}
	return swept
}

// getConn returns the live connection, redialing if necessary. Each
// invocation tolerates at most RedialAttempts failed dials before giving
// up, so a call can never spin forever against a dead server.
func (c *NetClient) getConn(ctx context.Context) (*clientConn, error) {
	fails := 0
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, ErrConnClosed
		}
		if c.w != nil {
			w := c.w
			c.mu.Unlock()
			return w, nil
		}
		if c.opts.Dial == nil {
			c.mu.Unlock()
			return nil, ErrConnClosed
		}
		if fails >= c.opts.RedialAttempts {
			lastErr := c.lastDialErr
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: redial failed %d times, last error: %v",
				ErrConnClosed, fails, lastErr)
		}
		if c.dialing {
			// Another call is already dialing; wait for its round.
			done := c.dialDone
			c.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				return nil, timeoutError(ctx.Err())
			case <-c.closedCh:
				return nil, ErrConnClosed
			}
			fails++ // count the observed round against our budget
			c.mu.Lock()
			continue
		}
		// This call runs the dial round. Jittered, capped exponential
		// backoff: delay doubles per consecutive failure, and the actual
		// sleep is uniform over [delay/2, delay] so a thundering herd of
		// reconnecting clients decorrelates.
		c.dialing = true
		c.dialDone = make(chan struct{})
		done := c.dialDone
		delay := c.backoff
		if delay > 0 {
			half := delay / 2
			delay = half + time.Duration(c.rng.Int63n(int64(half)+1))
		}
		if c.backoff == 0 {
			c.backoff = c.opts.BackoffInitial
		} else if c.backoff < c.opts.BackoffMax {
			c.backoff *= 2
			if c.backoff > c.opts.BackoffMax {
				c.backoff = c.opts.BackoffMax
			}
		}
		c.mu.Unlock()

		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				c.mu.Lock()
				c.dialing = false
				c.mu.Unlock()
				close(done)
				return nil, timeoutError(ctx.Err())
			case <-c.closedCh:
				t.Stop()
				c.mu.Lock()
				c.dialing = false
				c.mu.Unlock()
				close(done)
				return nil, ErrConnClosed
			}
		}
		conn, err := c.opts.Dial()
		if err != nil {
			// Each failed dial counts against the breaker, so a dead
			// peer opens it even when no request ever reaches the wire.
			c.brFailure()
		}

		c.mu.Lock()
		c.dialing = false
		if err != nil {
			c.lastDialErr = err
			fails++
		} else if c.closed {
			conn.Close()
		} else {
			c.gen++
			c.attach(conn)
			c.backoff = 0
			c.reconnects.Add(1)
			gen := c.gen
			c.mu.Unlock()
			c.emitReconnect(gen) // tracer callback runs outside the client lock
			c.mu.Lock()
		}
		close(done)
	}
}

// Call performs one network RPC, under the client's default CallTimeout
// when one is configured.
func (c *NetClient) Call(proc int, args []byte) ([]byte, error) {
	ctx, cancel := c.callCtx()
	defer cancel()
	return c.CallContext(ctx, proc, args)
}

// callCtx is the context of a call entry without one: bounded by the
// client's default CallTimeout when one is configured.
func (c *NetClient) callCtx() (context.Context, context.CancelFunc) {
	if c.opts.CallTimeout > 0 {
		return context.WithTimeout(context.Background(), c.opts.CallTimeout)
	}
	return context.Background(), func() {}
}

// allow is the circuit-breaker gate every submission passes ahead of
// the in-flight window: while the peer is known dead, calls fail fast
// with ErrBreakerOpen instead of queueing behind doomed requests. probe
// elects the caller the half-open probe, whose verdict goes to
// brObserve.
func (c *NetClient) allow() (probe bool, err error) {
	if c.br == nil {
		return false, nil
	}
	return c.br.allow(time.Now())
}

// CallContext performs one network RPC under ctx: the call fails with
// ErrCallTimeout when the deadline expires, whether it is waiting for an
// in-flight slot, a reconnection, or the reply.
func (c *NetClient) CallContext(ctx context.Context, proc int, args []byte) ([]byte, error) {
	if err := c.checkRequestSize(args, 0); err != nil {
		return nil, err
	}
	return c.call(ctx, uint32(proc), args, nil)
}

// CallChain submits a whole dependent pipeline as one request frame and
// one reply: the server executes every stage in its own domain
// (chain.go) and returns only the final stage's results. The client's
// default CallTimeout, when configured, bounds the single round trip.
func (c *NetClient) CallChain(ch *Chain) ([]byte, error) {
	ctx, cancel := c.callCtx()
	defer cancel()
	return c.CallChainContext(ctx, ch)
}

// CallChainContext is CallChain under a context. A mid-chain failure
// surfaces as a *ChainError carrying the failing stage's index and the
// server's executed-through vouch; errors.Is(err, ErrNotExecuted) holds
// exactly when the server vouches no stage ran, so Supervise* failover
// classification stays exact per stage.
func (c *NetClient) CallChainContext(ctx context.Context, ch *Chain) ([]byte, error) {
	if err := ch.check(); err != nil {
		return nil, err
	}
	desc := appendChain(nil, ch.stages)
	if err := c.checkRequestSize(desc, 0); err != nil {
		return nil, err
	}
	return c.call(ctx, wireFlagChain, desc, nil)
}

// call is every synchronous entry: submit, then a wait for the call's
// reply. A call with no deadline — no Done channel — can block in Read,
// so when the connection's read role is free it reads for itself
// (DESIGN §5.19). Any other call waits on its future or its deadline. At
// the deadline the caller claims its call back and settles it as timed
// out; when the reader claimed it first — it may be mid-stream into a
// bulk handle's buffer — the caller waits for that delivery instead,
// which the reply or the connection's death bounds. h, when non-nil,
// streams a BulkIn payload behind the frame or receives a BulkOut
// reply's payload.
func (c *NetClient) call(ctx context.Context, procWord uint32, args []byte, h *BulkHandle) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.calls.Add(1)
	lead := ctx.Done() == nil
	f, id, cc, err := c.submit(ctx, lead, procWord, args, h)
	if err != nil {
		return nil, err
	}
	if lead && c.lead(cc) {
		c.follow(cc, f)
	} else if !f.await(ctx.Done()) {
		if p, mine := c.claim(id); mine {
			c.timeouts.Add(1)
			c.settle(p, nil, timeoutError(ctx.Err()))
		}
	}
	return f.Wait()
}

// submit is the one submission under every call with a reply: allow →
// window → getConn → the expired-deadline check → newFuture → register →
// write. Once it returns a future, whoever claims the call back out of
// c.wait settles it. A failed write is taken back by its writer — its
// own claim, or the future a connection sweep settled first — and then
// what the write did decides: a frame that reached the wire may have run
// and fails with ErrConnClosed; one that did not is redialled and resent
// while its payload can be replayed, and is ErrNotSent once it cannot.
// lead says the caller will read for its own reply when it can (see
// register); cc is the connection the request went out on.
func (c *NetClient) submit(ctx context.Context, lead bool, procWord uint32, args []byte, h *BulkHandle) (f *Future, id uint64, cc *clientConn, err error) {
	probe, err := c.allow()
	if err != nil {
		return nil, 0, nil, err
	}
	// A buffer-backed payload can be replayed; a stream-backed source is
	// consumed by its attempt and gets exactly one.
	replayable := h == nil || h.src == nil
	for attempt := 0; attempt < c.opts.RedialAttempts; attempt++ {
		w, err := c.reserve(ctx)
		if err != nil {
			c.brObserve(probe, err)
			return nil, 0, nil, err
		}
		f := newFuture()
		f.abandons = &c.timeouts
		id, ok := c.register(pendingCall{fut: f, gen: w.gen, bulk: h, probe: probe, chain: procWord&wireFlagChain != 0}, w, lead)
		if !ok {
			<-c.sem
			f.release()
			err := notSent(ErrConnClosed)
			c.brObserve(probe, err)
			return nil, 0, nil, err
		}
		wrote, werr := c.writeRequest(ctx, w, id, procWord, args, h)
		if werr == nil {
			return f, id, w, nil
		}
		c.emitEvent(TraceWriteFail, werr)
		err = fmt.Errorf("%w: send failed mid-request: %v", ErrConnClosed, werr)
		if !wrote {
			err = notSent(fmt.Errorf("%w: send failed: %v", ErrConnClosed, werr))
		}
		if p, mine := c.claim(id); mine {
			c.settle(p, nil, err)
		}
		c.connBroken(w, werr)
		f.Wait() // this settlement or a sweep's: either way, the write decides
		if wrote || !replayable {
			return nil, 0, nil, err
		}
		// Nothing reached the wire: resending cannot double-execute
		// anything.
		c.retries.Add(1)
	}
	// Every attempt's failed write has already reached the breaker.
	return nil, 0, nil, notSent(fmt.Errorf("%w: request could not be sent after %d attempts",
		ErrConnClosed, c.opts.RedialAttempts))
}

// reserve takes an in-flight slot (backpressure instead of unbounded
// pipelining) and the live connection for one attempt. A call already
// past its deadline is not written: the window's select picks a free
// slot as often as ctx.Done(), and its write would fail with nothing
// sent, which says nothing against the connection other calls share. On
// an error the slot is given back and nothing was sent.
func (c *NetClient) reserve(ctx context.Context) (*clientConn, error) {
	select {
	case c.sem <- struct{}{}:
	case <-c.closedCh:
		return nil, notSent(ErrConnClosed)
	case <-ctx.Done():
		c.timeouts.Add(1)
		return nil, timeoutError(ctx.Err())
	}
	w, err := c.getConn(ctx)
	if d, ok := ctx.Deadline(); err == nil && ok && !time.Now().Before(d) {
		err = timeoutError(context.DeadlineExceeded)
	}
	switch {
	case errors.Is(err, ErrCallTimeout):
		c.timeouts.Add(1)
	case err != nil:
		err = notSent(err) // getConn fails strictly before any write
	default:
		return w, nil
	}
	<-c.sem
	return nil, err
}

// register enters p, a call about to be written on cc, in the wait
// table under a fresh call id: the one write to c.wait. ok is false once
// the client is closed. A call that will not read for itself (lead
// false) hands a free read role to cc's background reader, so no
// registered call is left without a reader; a call that can lead covers
// its own until it has written and takes the role (NetClient.lead), or
// finds it taken and marks it asked for.
func (c *NetClient) register(p pendingCall, cc *clientConn, lead bool) (id uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, false
	}
	c.nextID++
	c.wait[c.nextID] = p
	switch {
	case cc.dead:
	case cc.role != readFree:
		cc.asked = cc.asked || lead
	case !lead:
		cc.role = readBackground
		cc.wake()
	}
	return c.nextID, true
}

// claim takes call id back out of the wait table; false reports that
// someone else already claimed it, and settles it.
func (c *NetClient) claim(id uint64) (pendingCall, bool) {
	c.mu.Lock()
	p, ok := c.wait[id]
	if ok {
		delete(c.wait, id)
	}
	c.mu.Unlock()
	return p, ok
}

// settle finishes a claimed call: its in-flight slot is given back, its
// verdict reaches the breaker (a reply, even a remote error, proves the
// peer alive), and only then is its future completed, so a continuation
// that resubmits from the completion finds both.
func (c *NetClient) settle(p pendingCall, out []byte, err error) {
	<-c.sem
	c.brObserve(p.probe, err)
	p.fut.complete(out, err)
}

// writeRequest writes one request frame, and a BulkIn handle's payload
// behind it, under the call's own deadline when ctx has one. wrote
// reports whether any byte of the frame made it into the connection.
func (c *NetClient) writeRequest(ctx context.Context, w *clientConn, id uint64, procWord uint32, args []byte, h *BulkHandle) (wrote bool, err error) {
	bp := frameBufPool.Get().(*[]byte)
	buf := appendRequestFrame((*bp)[:0], id, c.name, procWord, args, h)
	due, _ := ctx.Deadline()
	if h != nil && h.dir == BulkIn {
		wrote, err = w.write(buf, due, h.buf, h.src, h.length())
	} else {
		wrote, err = w.write(buf, due, nil, nil, 0)
	}
	*bp = buf
	frameBufPool.Put(bp)
	return wrote, err
}

// connWriter is one connection's write side. It serializes frame writes
// and keeps a write deadline armed across them instead of setting and
// clearing one around every frame, which costs two runtime-timer updates
// per write. The rule: a write starting at now is bounded by the armed
// deadline, re-armed to now+timeout only once less than timeout/2 of it
// remains, so every write gets at least half of timeout and at most all
// of it; a call's own deadline, when earlier, is set exactly; a bulk
// payload behind a frame gets a fresh budget of its own.
type connWriter struct {
	mu      sync.Mutex
	timeout time.Duration
	conn    net.Conn
	armed   time.Time // the write deadline set on conn; zero before the first write
}

// write writes frame as a single Write call, so "reached the wire" is
// decidable: wrote reports whether any byte of it made it into the
// connection. due, when nonzero, is the call's own deadline. A bulk
// payload — n bytes of src when src is non-nil, else body — streams
// right behind the frame under the same hold, so a concurrent frame
// cannot interleave into it: body is one Write, src goes through
// io.CopyN, whose ReadFrom fast path hands an *os.File source to
// sendfile(2) where the platform has it.
func (w *connWriter) write(frame []byte, due time.Time, body []byte, src io.Reader, n int64) (wrote bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.arm(due, false)
	k, err := w.conn.Write(frame)
	if err == nil && (src != nil || len(body) > 0) {
		w.arm(time.Time{}, true) // the payload can dwarf the frame
		if src != nil {
			_, err = io.CopyN(w.conn, src, n)
		} else {
			_, err = w.conn.Write(body)
		}
	}
	return k > 0, err
}

// arm sets the connection's write deadline when the rule on connWriter
// says it must change; fresh asks for a full budget whatever remains.
func (w *connWriter) arm(due time.Time, fresh bool) {
	now := time.Now()
	d, set := w.armed, fresh || w.armed.Sub(now) < w.timeout/2
	if set {
		d = now.Add(w.timeout)
	}
	if !due.IsZero() && due.Before(d) {
		d, set = due, true
	}
	if set {
		w.armed = d
		w.conn.SetWriteDeadline(d)
	}
}

// appendRequestFrame appends one length-prefixed request frame to dst —
// every request frame is encoded here, a batch's coalesced write
// included: len u32 | id u64 | nameLen u16 | name | procWord u32 |
// [bulk header] | args. A non-nil h sets wireFlagBulk and writes the
// bulk header: u8 direction, u64 payload length (BulkIn) or capacity
// (BulkOut).
func appendRequestFrame(dst []byte, id uint64, name string, procWord uint32, args []byte, h *BulkHandle) []byte {
	n := reqOverhead + len(name) + len(args)
	if h != nil {
		n += bulkReqHdrSize
		procWord |= wireFlagBulk
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint32(dst, procWord)
	if h != nil {
		dst = append(dst, byte(h.dir))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(h.length()))
	}
	return append(dst, args...)
}

// checkRequestSize rejects, before any wire activity, a request that
// could never cross: args beyond MaxOOBSize, a name beyond the u16
// field, or a total frame — fixed overhead, name, bulk header (extra),
// args — beyond maxFrame. Without this, a request near the limits would
// pass the client, trip the server's readFrame guard, and take the
// whole pipelined connection down with it.
func (c *NetClient) checkRequestSize(args []byte, extra int) error {
	if len(args) > MaxOOBSize {
		return ErrTooLarge
	}
	if len(c.name) > 0xFFFF {
		return fmt.Errorf("%w: interface name of %d bytes exceeds the wire limit", ErrTooLarge, len(c.name))
	}
	if n := reqOverhead + len(c.name) + extra + len(args); n > maxFrame {
		return fmt.Errorf("%w: %d-byte request frame exceeds the %d-byte wire limit", ErrTooLarge, n, maxFrame)
	}
	return nil
}

// CallBulk performs one network RPC carrying an out-of-frame bulk
// payload (bulk.go; nil h degrades to Call), under the client's default
// CallTimeout when one is configured. WriteTimeout bounds the whole
// payload stream — raise it when moving very large payloads over slow
// links.
func (c *NetClient) CallBulk(proc int, args []byte, h *BulkHandle) ([]byte, error) {
	ctx, cancel := c.callCtx()
	defer cancel()
	return c.CallBulkContext(ctx, proc, args, h)
}

// CallBulkContext is CallBulk under a context. When a deadline fires
// after the connection's reader has begun streaming the reply payload into the
// handle's buffer, the call waits for that stream to finish before
// returning, so the buffer is never written after the caller regains
// control.
func (c *NetClient) CallBulkContext(ctx context.Context, proc int, args []byte, h *BulkHandle) ([]byte, error) {
	if h == nil {
		return c.CallContext(ctx, proc, args)
	}
	if err := h.check(); err != nil {
		return nil, err
	}
	if err := c.checkRequestSize(args, bulkReqHdrSize); err != nil {
		return nil, err
	}
	h.n = 0
	return c.call(ctx, uint32(proc), args, h)
}

// Close tears down the connection permanently; in-flight calls fail with
// ErrConnClosed and no redial is attempted.
func (c *NetClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closedCh)
	w := c.w
	c.w = nil
	if w != nil {
		w.retire()
	}
	swept := c.sweep(0)
	c.mu.Unlock()
	for _, p := range swept {
		c.settle(p, nil, ErrConnClosed)
	}
	if w != nil {
		return w.conn.Close()
	}
	return nil
}

// --- framing ---

// frameBufPool recycles the per-write frame buffers on both sides of the
// connection — the network plane's analog of the pooled A-stacks on the
// local path, keeping steady-state request and reply writes off the heap.
// Read-side frames are NOT pooled: a reply body is handed to the caller
// as a sub-slice of its frame, so the frame's lifetime is the caller's.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// frameBuf returns a pooled buffer of length n. Return it with
// frameBufPool.Put once the write has completed.
func frameBuf(n int) *[]byte {
	bp := frameBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// readFrame reads one frame of at most maxFrame bytes.
func readFrame(r io.Reader) ([]byte, error) { return readLimitedFrame(r, maxFrame) }

// readLimitedFrame reads one u32-length-prefixed frame under a cap: a
// length header beyond max is rejected before a byte of body is read,
// let alone allocated.
func readLimitedFrame(r io.Reader, max int) ([]byte, error) {
	n, err := frameLen(r)
	if err != nil {
		return nil, err
	}
	if n > max {
		return nil, fmt.Errorf("lrpc: frame of %d bytes exceeds limit %d", n, max)
	}
	return readBody(r, n)
}

// frameLen reads a frame's length word. Both ends of a connection read
// through a *bufio.Reader, and there the word is peeked in place rather
// than copied into a buffer of its own, which would escape to the heap
// through io.ReadFull: one allocation per frame. Any other reader (a
// handshake's one frame off a bare conn) gets that buffer.
func frameLen(r io.Reader) (int, error) {
	if br, ok := r.(*bufio.Reader); ok {
		hdr, err := br.Peek(4)
		if err != nil {
			if len(hdr) > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF // as io.ReadFull reports a torn word
			}
			return 0, err
		}
		br.Discard(4)
		return int(binary.LittleEndian.Uint32(hdr)), nil
	}
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(hdr)), nil
}

// readBody reads exactly n bytes — a frame body or a BulkIn payload.
// Small bodies (the common case) are read in one shot of at most 64 KiB;
// past that the buffer doubles only once the bytes before it have
// arrived, so a hostile length cannot commit more memory per connection
// than it has actually sent.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, 64<<10))
	off := 0
	for {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
		if len(buf) == n {
			return buf, nil
		}
		off = len(buf)
		buf = append(buf, make([]byte, min(off, n-off))...)
	}
}

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeReply writes one reply frame. A status-3 reply — frame(callID, 3,
// u64 produced, results) — streams the produced payload bulk right
// behind its frame (connWriter.write).
func writeReply(w *connWriter, callID uint64, status byte, body, bulk []byte) error {
	// Frame the length header and payload into one pooled buffer so the
	// reply is a single Write (one syscall, no per-reply allocation).
	hdr := 9
	if status == 3 {
		hdr += 8
	}
	bp := frameBuf(4 + hdr + len(body))
	buf := *bp
	binary.LittleEndian.PutUint32(buf[0:4], uint32(hdr+len(body)))
	binary.LittleEndian.PutUint64(buf[4:12], callID)
	buf[12] = status
	if status == 3 {
		binary.LittleEndian.PutUint64(buf[13:21], uint64(len(bulk)))
	}
	copy(buf[4+hdr:], body)
	_, err := w.write(buf, time.Time{}, bulk, nil, 0)
	frameBufPool.Put(bp)
	return err
}

func parseRequest(frame []byte) (callID uint64, name string, proc int, oneWay, bulk, chain bool, args []byte, err error) {
	if len(frame) < 10 {
		return 0, "", 0, false, false, false, nil, errors.New("lrpc: short request")
	}
	callID = binary.LittleEndian.Uint64(frame[0:8])
	nameLen := int(binary.LittleEndian.Uint16(frame[8:10]))
	if len(frame) < 10+nameLen+4 {
		return 0, "", 0, false, false, false, nil, errors.New("lrpc: truncated request")
	}
	name = string(frame[10 : 10+nameLen])
	procWord := binary.LittleEndian.Uint32(frame[10+nameLen:])
	oneWay = procWord&wireFlagOneWay != 0
	bulk = procWord&wireFlagBulk != 0
	chain = procWord&wireFlagChain != 0
	// Mask the flag bits off unconditionally: a hostile flag must not be
	// able to alias one procedure index onto another.
	proc = int(procWord &^ (wireFlagOneWay | wireFlagBulk | wireFlagChain))
	args = frame[10+nameLen+4:]
	return callID, name, proc, oneWay, bulk, chain, args, nil
}

// parseBulkHeader splits a bulk request's args into the bulk header —
// direction and payload length (BulkIn) or reserved capacity (BulkOut)
// — and the in-band args proper. An invalid header is unrecoverable:
// the connection cannot know whether payload bytes follow, so callers
// must drop it.
func parseBulkHeader(args []byte) (BulkDir, int64, []byte, error) {
	if len(args) < bulkReqHdrSize {
		return 0, 0, nil, errors.New("lrpc: truncated bulk header")
	}
	dir := BulkDir(args[0])
	n := int64(binary.LittleEndian.Uint64(args[1:9]))
	if dir != BulkIn && dir != BulkOut {
		return 0, 0, nil, fmt.Errorf("lrpc: bad bulk direction %d", args[0])
	}
	if n < 0 || n > MaxBulkSize {
		return 0, 0, nil, fmt.Errorf("lrpc: bulk length %d out of range", n)
	}
	return dir, n, args[bulkReqHdrSize:], nil
}

// oversizedResults is the failure of handler results beyond MaxOOBSize
// on a plane that cannot frame them.
func oversizedResults(n int) error {
	return fmt.Errorf("%w: %d result bytes exceed MaxOOBSize (%d); use CallBulk with a BulkOut handle",
		ErrTooLarge, n, MaxOOBSize)
}
