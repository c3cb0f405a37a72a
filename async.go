package lrpc

// The asynchronous call plane: futures, one-way calls, and batched
// submission — io_uring-style SQ/CQ semantics layered over the package's
// existing doorbell machinery. The synchronous path is untouched: every
// type here is additive, and Binding.Call stays 0 locks / 0 allocs
// (TestCallZeroAllocsWithAsyncEnabled, gated by cmd/benchcheck).
//
// The design maps onto the paper's structures like this:
//
//   - A Future is the linkage record of §3.1 made first-class: the
//     caller's handle on an activation whose result it has not yet
//     collected. Futures are pooled and collect-once — Wait both returns
//     the result and recycles the record, so a steady-state async
//     workload allocates nothing per call beyond the result copy. The
//     completion token goes only to a waiter parked on it: collecting a
//     call that already finished is one CAS, no channel operation.
//   - A Batch is a submission queue over any transport's doorbell. The
//     per-call cost the paper minimizes — one control transfer (and, on
//     the shm plane, potentially one futex wake) per call — is amortized
//     by staging N submissions and ringing the doorbell once: N ring
//     entries then a single Bump on shm, N frames coalesced into one
//     write on TCP, one dispatch pass on the caller's thread in-process.
//     Entries are staged in place in the batch's one list, and an
//     in-process flush allocates its results once, in one arena.
//   - One-way calls drop the reply half entirely: no future, no reply
//     slot, at-most-once execution with errors dropped (and counted) on
//     the serving side. See DESIGN §5.13 for the exact semantics.
//
// Dependent calls (A's result feeds B) do not belong here: they run as a
// Chain (chain.go), every stage in the server's domain on one submission.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrFutureSpent reports misuse of a pooled future: Wait collects a
// future exactly once, and a collected future must not be waited
// again — it may already belong to another call.
var ErrFutureSpent = errors.New("lrpc: future already collected (pooled futures are wait-once)")

// errWouldBlock is the transports' internal "no submission capacity
// right now": batch staging flushes and retries.
var errWouldBlock = errors.New("lrpc: submission would block")

// Future states. A checkout moves idle→pending. Completion moves
// pending→ready when nobody waits, or parked→done when a waiter is
// blocked on the token, which that waiter turns into ready once it holds
// the token. Collection moves ready→collected (and back to the pool); a
// caller that gives up moves pending→abandoned, after which the
// completer recycles.
const (
	futIdle uint32 = iota
	futPending
	futParked // a waiter is blocked on ch
	futReady  // completed, no token outstanding: collectable at once
	futDone   // completed, token sent to the parked waiter
	futCollected
	futAbandoned
)

// Future is the caller's handle on an asynchronous call: a pooled,
// collect-once promise of the call's results. Obtain one from CallAsync
// or Batch.Call; collect it with Wait (or Batch.Wait). A future is not
// safe for concurrent use by multiple goroutines: a second goroutine
// that waits while another is already blocked on it gets ErrFutureSpent.
type Future struct {
	state atomic.Uint32
	slot  uint32        // the entry's slot on lazy (beside state: no padding)
	ch    chan struct{} // capacity 1: the completion signal
	// abandon is closed when the caller gives up on the future; an
	// in-process submission still queued for admission sheds on it.
	abandon chan struct{}

	out []byte
	err error

	// In-process abandonment integration (nil on the client planes):
	// abandoning a future counts against the export and registers the
	// running activation as an orphan, exactly like CallContext.
	exp      *Export
	sys      *System
	procName string
	act      atomic.Pointer[activation]

	// abandons, when non-nil, is the client plane's timeout counter.
	abandons *atomic.Uint64

	// lazy, when non-nil, is the batch plane that reaps this future's
	// completion only while somebody drives it (the shm batch): a waiter
	// about to block drives it first, and a Done that finds the call
	// pending hands the entry over.
	lazy lazyBackend
}

var futurePool = sync.Pool{New: func() any {
	return &Future{
		ch:      make(chan struct{}, 1),
		abandon: make(chan struct{}),
	}
}}

// newFuture checks a future out of the pool in the pending state.
func newFuture() *Future {
	f := futurePool.Get().(*Future)
	select {
	case <-f.abandon: // closed by a previous occupant's abandonment
		f.abandon = make(chan struct{})
	default:
	}
	f.out, f.err = nil, nil
	f.exp, f.sys, f.procName = nil, nil, ""
	f.act.Store(nil)
	f.abandons = nil
	f.lazy = nil
	f.state.Store(futPending)
	return f
}

// release returns the future to the pool. Callers must hold the only
// remaining reference.
func (f *Future) release() {
	futurePool.Put(f)
}

// complete delivers the call's outcome. Exactly one completion per
// checkout: every submission path ends in one complete call, whether
// the call ran, was shed, or the transport died under it. If the caller
// abandoned the future first, the result is dropped and the future
// recycled here.
//
// Ordering matters: the results are written first, and each way out
// ends with complete's last touch of the record — the CAS to futReady
// when nobody is parked (a waiter that observes futReady may recycle at
// once), or else the token send to the one parked waiter, whose receive
// proves the completer is finished. The token goes only to a parked
// waiter, so a future always returns to the pool with its channel empty.
//
// Only futAbandoned means nobody will collect. A parked waiter whose
// stop fires backs out to futPending, and may do so between the two
// CASes below; complete then goes round again rather than recycle a
// record that waiter still holds.
func (f *Future) complete(out []byte, err error) {
	f.out, f.err = out, err
	for {
		if f.state.CompareAndSwap(futPending, futReady) {
			return
		}
		if h := completeBetweenCAS.Load(); h != nil {
			(*h)(f)
		}
		if f.state.CompareAndSwap(futParked, futDone) {
			f.ch <- struct{}{}
			return
		}
		if f.state.Load() == futAbandoned {
			f.out, f.err = nil, nil
			f.release()
			return
		}
	}
}

// completeBetweenCAS, when set, runs inside complete after its
// pending→ready CAS has failed, so a test can move a waiter in the
// window between complete's two CASes. The fast path never loads it.
var completeBetweenCAS atomic.Pointer[func(*Future)]

// park blocks a waiter that observed futPending until the call completes
// or stop closes, and reports false only for stop. A waiter that finds
// the state moved on returns true at once for its caller to re-read it.
// Backing out on stop races the completer: if the parked→pending CAS
// loses, the completer already claimed the parked state and its token is
// on the way, so the waiter takes it rather than strand it in ch.
func (f *Future) park(stop <-chan struct{}) bool {
	if f.lazy != nil {
		f.lazy.drive(f, f.slot)
	}
	if !f.state.CompareAndSwap(futPending, futParked) {
		return true
	}
	select {
	case <-f.ch:
	case <-stop:
		if f.state.CompareAndSwap(futParked, futPending) {
			return false
		}
		<-f.ch
	}
	f.state.Store(futReady)
	return true
}

// await blocks until f completes or stop closes, reporting whether it
// completed; a completed future is left for Wait to collect at once.
func (f *Future) await(stop <-chan struct{}) bool {
	for f.state.Load() == futPending {
		if !f.park(stop) {
			return false
		}
	}
	return true
}

// Done reports whether the call has completed and the result awaits
// collection.
func (f *Future) Done() bool {
	if f.lazy != nil && f.state.Load() == futPending {
		// Nobody may ever wait: let the plane reap it on its own.
		f.lazy.handOver(f, f.slot)
	}
	return f.state.Load() == futReady
}

// Err blocks until the call completes and returns its error without
// collecting the result: Wait afterwards still returns the results (and
// recycles the future). On a future that was already collected it
// returns ErrFutureSpent.
func (f *Future) Err() error {
	f.await(nil)
	if f.state.Load() != futReady {
		return ErrFutureSpent
	}
	return f.err
}

// Wait blocks until the call completes, returns its results, and
// recycles the future. Each future may be waited exactly once; a second
// Wait returns ErrFutureSpent.
func (f *Future) Wait() ([]byte, error) { return f.WaitContext(context.Background()) }

// WaitContext is Wait under a context: when ctx ends first the caller
// abandons the call — ErrCallTimeout, the §5.3 abandonment protocol —
// and the eventual completion recycles the future. An in-process
// activation abandoned mid-handler is accounted exactly like
// CallContext's: the export's abandoned counter, the orphan registry,
// and a TraceAbandon event.
func (f *Future) WaitContext(ctx context.Context) ([]byte, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		switch f.state.Load() {
		case futReady:
			if f.state.CompareAndSwap(futReady, futCollected) {
				out, err := f.out, f.err
				f.release()
				return out, err
			}
		case futPending:
			if !f.park(done) && f.state.CompareAndSwap(futPending, futAbandoned) {
				close(f.abandon)
				f.noteAbandon(ctx.Err())
				return nil, timeoutError(ctx.Err())
			}
		default:
			// Collected, or a concurrent (misused) second waiter holds
			// it parked.
			return nil, ErrFutureSpent
		}
	}
}

// noteAbandon records one abandoned future against whichever plane
// submitted it.
func (f *Future) noteAbandon(cause error) {
	if f.exp != nil {
		f.exp.abandoned.Add(1)
		if act := f.act.Load(); act != nil {
			f.sys.addOrphan(act, f.exp, f.procName)
		}
		f.sys.emitTrace(TraceAbandon, f.exp.iface.Name, f.procName, cause)
	}
	if f.abandons != nil {
		f.abandons.Add(1)
	}
}

// --- asynchronous submission, in-process plane ---

// CallAsync submits proc without waiting: the returned future resolves
// when the handler (run on a private server thread of control) returns.
// Submission errors — revoked binding, bad procedure, oversized args —
// are returned synchronously and no future is created. The args slice
// must not be modified until the future completes.
//
// Admission control is applied at submit time, before the call consumes
// a Call record or an A-stack: an over-cap submission queues (and may be
// evicted by higher-priority traffic) or sheds with ErrOverload through
// the future.
func (b *Binding) CallAsync(proc int, args []byte) (*Future, error) {
	return b.CallAsyncOpts(proc, args, CallOpts{})
}

// CallAsyncOpts is CallAsync carrying per-call priority and an admission
// deadline.
func (b *Binding) CallAsyncOpts(proc int, args []byte, opts CallOpts) (*Future, error) {
	p, _, err := b.validate(proc, args)
	if err != nil {
		b.traceValidateFail(proc, err)
		return nil, err
	}
	f := newFuture()
	f.exp, f.sys, f.procName = b.exp, b.sys, p.Name
	go b.runAsync(proc, args, f, opts)
	return f, nil
}

// CallOneWay is fire-and-forget: on the in-process plane there is no
// reply slot to economize, so the call simply executes on the caller's
// thread — exactly once — and the outcome is returned directly. The
// remote planes (ShmClient, NetClient) return once the submission is
// posted and drop execution errors; see DESIGN §5.13.
func (b *Binding) CallOneWay(proc int, args []byte) error {
	_, err := b.callAppend(proc, args, nil, PriorityNormal)
	return err
}

// runAsync is an in-process asynchronous call: both halves of the
// invocation core on a private goroutine, resolving a future instead of
// returning. The future's abandon channel is the cancel channel, so a
// submission whose waiter gave up costs no Call record and no A-stack.
func (b *Binding) runAsync(proc int, args []byte, f *Future, opts CallOpts) {
	inv := invocation{proc: proc, args: args, prio: opts.Priority, deadline: opts.Deadline, cancel: f.abandon}
	if err := b.begin(&inv); err != nil {
		if err == errWaitCancelled {
			err = timeoutError(context.Canceled)
		}
		f.complete(nil, err)
		return
	}
	// The activation record: published so an abandoning waiter can
	// register the running handler as an orphan (resilience.go).
	act := &activation{inv: inv, done: make(chan struct{})}
	f.act.Store(act)
	act.err = b.finish(&act.inv)
	close(act.done)
	f.complete(act.inv.out, act.err)
}

// --- Batch: the submission/completion queue ---

// batchBackend is one transport's submission plane. stage records (and,
// for transports with real doorbells, posts) one entry without ringing;
// flush makes everything staged visible with a single doorbell. pending
// is the batch's own entry list from the first entry not yet flushed;
// only the in-process backend, which stages nothing, reads it (in
// place, keeping no copy) — the others flush what stage already posted.
type batchBackend interface {
	stage(e *batchEnt) error
	flush(pending []batchEnt) error
}

// lazyBackend is a batch backend whose completions are reaped only while
// somebody drives them: the shm plane (shm_async.go), whose batch entries
// the demultiplexer is not woken for. A waiter about to block on a
// pending entry (Future.park, under Batch.Wait or a direct Wait) runs
// drive on its own goroutine: the plane's wait window, then a hand-over
// if the entry is still pending. An entry nobody will drive — one Done
// polls, one Reset lets go unwaited — is handed over, after which the
// plane reaps it without help. handOver is idempotent and safe from any
// goroutine, and a no-op once the entry has completed.
type lazyBackend interface {
	drive(f *Future, slot uint32)
	handOver(f *Future, slot uint32)
}

// batchEnt is one staged submission and, after Batch.Wait, its outcome.
type batchEnt struct {
	proc   int
	args   []byte
	fut    *Future
	oneWay bool
	out    []byte
	err    error
	waited bool
	slot   uint32 // the entry's slot on a lazyBackend
}

// Batch accumulates submissions and rings the transport's doorbell once
// per Flush — a submission queue in the io_uring sense, over whichever
// plane built it (Binding.NewBatch, ShmClient.NewBatch,
// NetClient.NewBatch, TransparentBinding.NewBatch). A Batch is not safe
// for concurrent use. Typical shape:
//
//	bt := b.NewBatch()
//	for i := 0; i < n; i++ { bt.Call(proc, args[i]) }
//	if err := bt.Wait(); err != nil { ... } // one doorbell, bulk reap
//	for i := 0; i < n; i++ { res, err := bt.Result(i); ... }
//	bt.Reset()
type Batch struct {
	be    batchBackend
	ents  []batchEnt
	sent  int            // ents[:sent] have been flushed
	stats *atomic.Uint64 // per-client batch counter, may be nil
}

// NewBatch builds a submission batch over the in-process plane: Flush
// dispatches the staged calls in one pass on the caller's thread.
func (b *Binding) NewBatch() *Batch {
	return &Batch{be: &inprocBatch{b: b}}
}

// Call stages one submission and returns its future. Nothing executes
// until Flush (or Wait). The args slice must stay unmodified until the
// future completes.
func (bt *Batch) Call(proc int, args []byte) (*Future, error) {
	f := newFuture()
	if err := bt.add(batchEnt{proc: proc, args: args, fut: f}); err != nil {
		// complete+Wait rather than bare release: the stage may have
		// partially published the future before failing.
		f.complete(nil, err)
		f.Wait()
		return nil, err
	}
	return f, nil
}

// OneWay stages a fire-and-forget submission: no future, no reply slot.
// Execution errors are dropped and counted by the serving side — the
// at-most-once contract of DESIGN §5.13.
func (bt *Batch) OneWay(proc int, args []byte) error {
	return bt.add(batchEnt{proc: proc, args: args, oneWay: true})
}

// add appends e to the entry list and stages it where it lies; an entry
// the backend refuses is truncated off again.
func (bt *Batch) add(e batchEnt) error {
	bt.ents = append(bt.ents, e)
	n := len(bt.ents) - 1
	if err := bt.be.stage(&bt.ents[n]); err != nil {
		bt.ents = bt.ents[:n]
		return err
	}
	return nil
}

// Flush submits everything staged since the last flush with one
// doorbell: one futex bump on shm, one coalesced write on TCP, one
// dispatch pass in-process.
func (bt *Batch) Flush() error {
	if bt.stats != nil {
		bt.stats.Add(1)
	}
	pending := bt.ents[bt.sent:]
	bt.sent = len(bt.ents)
	return bt.be.flush(pending)
}

// Wait flushes, then collects every staged future in submission order —
// the bulk completion reap. Results and errors are retrievable per
// entry through Result; Wait itself returns the first error (one-way
// entries excluded). After Wait the batch's futures are spent; the
// batch may be Reset and reused.
func (bt *Batch) Wait() error {
	if err := bt.Flush(); err != nil {
		return err
	}
	var first error
	for i := range bt.ents {
		e := &bt.ents[i]
		if e.oneWay || e.waited {
			continue
		}
		e.out, e.err = e.fut.Wait()
		e.waited = true
		e.fut = nil
		if e.err != nil && first == nil {
			first = e.err
		}
	}
	return first
}

// Result returns entry i's outcome, valid after Wait. Entries number
// every Call and OneWay in staging order; one-way entries report nil
// results. On the in-process plane the results of one flush share one
// allocation, so keeping any one of them keeps that flush's results
// alive; each is capped at its own length, so appending to one never
// reaches its neighbour.
func (bt *Batch) Result(i int) ([]byte, error) {
	e := &bt.ents[i]
	return e.out, e.err
}

// Len returns the number of staged entries.
func (bt *Batch) Len() int { return len(bt.ents) }

// Reset forgets the batch's entries (capacity is retained). Entries
// staged since the last flush are flushed first, so every future the
// batch handed out still completes: futures not collected by Wait
// remain valid — Reset drops the batch's references, not the callers'.
func (bt *Batch) Reset() {
	if bt.sent < len(bt.ents) {
		bt.Flush()
	}
	if lb, ok := bt.be.(lazyBackend); ok {
		for i := range bt.ents {
			if e := &bt.ents[i]; !e.oneWay && !e.waited {
				lb.handOver(e.fut, e.slot)
			}
		}
	}
	bt.ents, bt.sent = bt.ents[:0], 0
}

// errBackend is the backend of a Batch built over an unavailable
// transport (the non-linux ShmClient stub): every operation fails with
// the transport's sentinel.
type errBackend struct{ err error }

func (e errBackend) stage(*batchEnt) error  { return e.err }
func (e errBackend) flush([]batchEnt) error { return e.err }

// inprocBatch is the in-process backend: staging is pure bookkeeping
// and Flush is the single dispatch pass on the caller's thread — the
// domain transfer of §3.2 repeated N times without returning to the
// submitter between calls. It reads the batch's entries in place.
type inprocBatch struct {
	b *Binding
	// mean is the last flush's mean result length, which sizes the next
	// flush's result arena.
	mean int
}

// arenaMax caps one flush's result arena; results past it allocate
// their own.
const arenaMax = 64 << 10

func (ib *inprocBatch) stage(e *batchEnt) error {
	// Validate eagerly so a bad submission fails at stage time, matching
	// the remote planes (which must touch their transport to stage).
	if _, _, err := ib.b.validate(e.proc, e.args); err != nil {
		ib.b.traceValidateFail(e.proc, err)
		return err
	}
	return nil
}

// flush dispatches pending in order. Every result is appended into a
// fresh arena, one allocation for the whole flush, and capped at its own
// length; a result that does not fit in what is left of the arena gets
// its own allocation from append. The arena is never reused: each
// result belongs to its caller, exactly as a separately allocated one
// would.
func (ib *inprocBatch) flush(pending []batchEnt) error {
	var arena []byte
	if ib.mean > 0 && ib.mean <= arenaMax {
		arena = make([]byte, 0, min(len(pending)*ib.mean, arenaMax))
	}
	total := 0
	for i := range pending {
		e := &pending[i]
		out, err := ib.b.callAppend(e.proc, e.args, arena[len(arena):], PriorityNormal)
		n := len(out)
		total += n
		switch {
		case n == 0:
			out = nil
		case n <= cap(arena)-len(arena):
			arena = arena[:len(arena)+n]
			out = out[:n:n]
		}
		if e.oneWay {
			if err != nil {
				ib.b.dropOneWayError(e.proc, err)
			}
			continue
		}
		e.fut.complete(out, err)
	}
	if len(pending) > 0 {
		ib.mean = (total + len(pending) - 1) / len(pending)
	}
	return nil
}

// OneWayDrops returns the number of one-way executions whose error was
// discarded under the at-most-once contract (DESIGN §5.13).
func (e *Export) OneWayDrops() uint64 { return e.oneWayDrops.Load() }

// dropOneWayError accounts one discarded one-way execution error: the
// export's counter and a TraceOneWayDrop event. At-most-once means the
// call ran (or was rejected) exactly once; one-way means nobody is
// waiting to hear which.
func (b *Binding) dropOneWayError(proc int, err error) {
	b.exp.oneWayDrops.Add(1)
	name := ""
	if proc >= 0 && proc < len(b.exp.iface.Procs) {
		name = b.exp.iface.Procs[proc].Name
	}
	b.sys.emitTrace(TraceOneWayDrop, b.exp.iface.Name, name, err)
}
