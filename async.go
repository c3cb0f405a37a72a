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
//     workload allocates nothing per call beyond the result copy.
//   - A Batch is a submission queue over any transport's doorbell. The
//     per-call cost the paper minimizes — one control transfer (and, on
//     the shm plane, potentially one futex wake) per call — is amortized
//     by staging N submissions and ringing the doorbell once: N ring
//     entries then a single Bump on shm, N frames coalesced into one
//     write on TCP, one dispatch pass on the caller's thread in-process.
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

// Future states. A checkout moves idle→pending; completion pending→done;
// collection done→collected (and back to the pool); a caller that gives
// up moves pending→abandoned, after which the completer recycles.
const (
	futIdle uint32 = iota
	futPending
	futDone
	futCollected
	futAbandoned
)

// Future is the caller's handle on an asynchronous call: a pooled,
// collect-once promise of the call's results. Obtain one from CallAsync
// or Batch.Call; collect it with Wait (or Batch.Wait). A future is not
// safe for concurrent use by multiple goroutines.
type Future struct {
	state atomic.Uint32
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
	select {
	case <-f.ch: // stale completion signal
	default:
	}
	f.out, f.err = nil, nil
	f.exp, f.sys, f.procName = nil, nil, ""
	f.act.Store(nil)
	f.abandons = nil
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
// Ordering matters: the channel token is sent last, after the state
// flip, and a collector must consume the token before recycling —
// that receive is the happens-before edge
// proving the completer is finished with the record, so a fast waiter
// can never return a future to the pool under the completer's feet.
func (f *Future) complete(out []byte, err error) {
	f.out, f.err = out, err
	if f.state.CompareAndSwap(futPending, futDone) {
		select {
		case f.ch <- struct{}{}:
		default:
		}
		return
	}
	// Abandoned: nobody will collect. Recycle the record.
	f.out, f.err = nil, nil
	f.release()
}

// await blocks until f completes or stop closes, reporting whether it
// completed; a completed future is left for Wait to collect at once.
func (f *Future) await(stop <-chan struct{}) bool {
	select {
	case <-f.ch:
		f.ch <- struct{}{} // re-arm the token for Wait
		return true
	case <-stop:
		return false
	}
}

// Done reports whether the call has completed and the result awaits
// collection.
func (f *Future) Done() bool { return f.state.Load() == futDone }

// Err blocks until the call completes and returns its error without
// collecting the result: Wait afterwards still returns the results (and
// recycles the future). On a future that was already collected it
// returns ErrFutureSpent.
func (f *Future) Err() error {
	for {
		switch f.state.Load() {
		case futDone:
			return f.err
		case futPending:
			<-f.ch
			// Re-arm the token so a subsequent Wait can collect.
			select {
			case f.ch <- struct{}{}:
			default:
			}
		default:
			return ErrFutureSpent
		}
	}
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
		case futDone:
			if f.state.CompareAndSwap(futDone, futCollected) {
				// Consume the completion token: its send is complete's
				// final act, so this receive proves the completer is
				// done with the record and recycling is safe.
				<-f.ch
				out, err := f.out, f.err
				// Rouse any concurrent (misused) second waiter so it
				// observes the collected state instead of parking forever.
				select {
				case f.ch <- struct{}{}:
				default:
				}
				f.release()
				return out, err
			}
		case futPending:
			select {
			case <-f.ch:
				// Token in hand: the completer has fully finished and
				// the state is futDone. Claim without re-receiving.
				if f.state.CompareAndSwap(futDone, futCollected) {
					out, err := f.out, f.err
					select {
					case f.ch <- struct{}{}:
					default:
					}
					f.release()
					return out, err
				}
				// Lost the claim to a concurrent (misused) waiter that
				// may be blocked on the token we just took — hand it on.
				select {
				case f.ch <- struct{}{}:
				default:
				}
			case <-done:
				if f.state.CompareAndSwap(futPending, futAbandoned) {
					close(f.abandon)
					f.noteAbandon(ctx.Err())
					return nil, timeoutError(ctx.Err())
				}
			}
		default:
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
// flush makes everything staged visible with a single doorbell.
type batchBackend interface {
	stage(e *batchEnt) error
	flush() error
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
	e := batchEnt{proc: proc, args: args, fut: f}
	if err := bt.be.stage(&e); err != nil {
		// complete+Wait rather than bare release: the stage may have
		// partially published the future before failing.
		f.complete(nil, err)
		f.Wait()
		return nil, err
	}
	bt.ents = append(bt.ents, e)
	return f, nil
}

// OneWay stages a fire-and-forget submission: no future, no reply slot.
// Execution errors are dropped and counted by the serving side — the
// at-most-once contract of DESIGN §5.13.
func (bt *Batch) OneWay(proc int, args []byte) error {
	e := batchEnt{proc: proc, args: args, oneWay: true}
	if err := bt.be.stage(&e); err != nil {
		return err
	}
	bt.ents = append(bt.ents, e)
	return nil
}

// Flush submits everything staged since the last flush with one
// doorbell: one futex bump on shm, one coalesced write on TCP, one
// dispatch pass in-process.
func (bt *Batch) Flush() error {
	if bt.stats != nil {
		bt.stats.Add(1)
	}
	return bt.be.flush()
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
// results.
func (bt *Batch) Result(i int) ([]byte, error) {
	e := &bt.ents[i]
	return e.out, e.err
}

// Len returns the number of staged entries.
func (bt *Batch) Len() int { return len(bt.ents) }

// Reset forgets the batch's entries (capacity is retained). Futures not
// collected by Wait remain valid — Reset drops the batch's references,
// not the callers'.
func (bt *Batch) Reset() {
	bt.ents = bt.ents[:0]
}

// errBackend is the backend of a Batch built over an unavailable
// transport (the non-linux ShmClient stub): every operation fails with
// the transport's sentinel.
type errBackend struct{ err error }

func (e errBackend) stage(*batchEnt) error { return e.err }
func (e errBackend) flush() error          { return e.err }

// inprocBatch is the in-process backend: staging is pure bookkeeping
// and Flush is the single dispatch pass on the caller's thread — the
// domain transfer of §3.2 repeated N times without returning to the
// submitter between calls.
type inprocBatch struct {
	b    *Binding
	ents []batchEnt // staged copies, dispatched and cleared per flush
}

func (ib *inprocBatch) stage(e *batchEnt) error {
	// Validate eagerly so a bad submission fails at stage time, matching
	// the remote planes (which must touch their transport to stage).
	if _, _, err := ib.b.validate(e.proc, e.args); err != nil {
		ib.b.traceValidateFail(e.proc, err)
		return err
	}
	ib.ents = append(ib.ents, *e)
	return nil
}

func (ib *inprocBatch) flush() error {
	ents := ib.ents
	ib.ents = ib.ents[:0]
	for i := range ents {
		e := &ents[i]
		out, err := ib.b.callAppend(e.proc, e.args, nil, PriorityNormal)
		if e.oneWay {
			if err != nil {
				ib.b.dropOneWayError(e.proc, err)
			}
			continue
		}
		e.fut.complete(out, err)
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
