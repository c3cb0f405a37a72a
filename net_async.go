package lrpc

// The asynchronous call plane over TCP: futures, one-way frames, and
// batched submission with a single coalesced write per doorbell. The
// moving parts live close to the synchronous path in net.go — this file
// holds only the submission surface:
//
//   - CallAsync is the synchronous path's submit without the wait: one
//     pendingCall carrying a pooled *Future, which whoever claims it
//     settles — the connection's reader in place, releasing the
//     in-flight slot, so a continuation fired by the completion can
//     resubmit without spawning a waiter goroutine.
//   - CallOneWay sets wireFlagOneWay on the proc word and consumes no
//     reply slot at all: no pendingCall, no in-flight window entry, no
//     reply frame ever (the server drops and counts execution errors).
//   - A Batch stages frames into one buffer and Flush writes them with
//     a single conn.Write — N requests, one syscall, one wakeup on the
//     server's read loop: the TCP spelling of "ring the doorbell once".
//
// The asynchronous plane shares the synchronous path's circuit breaker
// (DESIGN §5.13): submissions are gated by allow() — while the breaker
// is open, CallAsync, CallOneWay, and Batch staging fail fast with
// ErrBreakerOpen instead of queueing behind a dead peer — and async
// completions feed it: a reply (even a remote error) counts success, a
// future swept by a connection loss counts failure, and a submission
// elected as the half-open probe carries its verdict on the pendingCall
// (probe) to brObserve. One-way calls have no reply to observe, so a
// probe elected for a one-way treats its successful write as the
// verdict — weak evidence, but the alternative wedges the half-open
// state forever under pure one-way traffic.

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// callAsync is every asynchronous entry: the size check, the count, and
// submit, whose future the call's settlement completes.
func (c *NetClient) callAsync(procWord uint32, args []byte) (*Future, error) {
	if err := c.checkRequestSize(args, 0); err != nil {
		return nil, err
	}
	c.asyncCalls.Add(1)
	f, _, _, err := c.submit(context.Background(), false, procWord, args, nil)
	return f, err
}

// asyncObserve reports a submission-path failure to the breaker with
// the sync path's classification (brObserve) and passes the error
// through — so a probe elected by a one-way or a staged batch entry that
// dies before its frame is written still delivers a verdict, and the
// half-open state cannot wedge.
func (c *NetClient) asyncObserve(probe bool, err error) error {
	c.brObserve(probe, err)
	return err
}

// CallAsync submits proc over the network without waiting: the returned
// future resolves when the reply frame arrives (or the connection dies
// under the request — ErrConnClosed, since the transport cannot know
// whether the server executed it). A request that provably never
// reached the wire is redialled and resent, as a synchronous call's is.
// Submission failures are returned synchronously and no future escapes.
// The args slice must not be modified until the future completes.
func (c *NetClient) CallAsync(proc int, args []byte) (*Future, error) {
	return c.callAsync(uint32(proc), args)
}

// CallChainAsync submits a whole dependent pipeline without waiting:
// one chain frame goes out now, and the returned future resolves with
// the final stage's results — or a *ChainError carrying the failing
// stage and the server's executed-through vouch — when the server's
// chain executor answers. The chain must not be mutated until then.
func (c *NetClient) CallChainAsync(ch *Chain) (*Future, error) {
	if err := ch.check(); err != nil {
		return nil, err
	}
	return c.callAsync(wireFlagChain, appendChain(nil, ch.stages))
}

// CallOneWay sends a fire-and-forget request: the frame carries
// wireFlagOneWay, the server sends no reply frame — not even for an
// execution error, which it drops and counts — and the submission
// consumes no reply slot or in-flight window entry. The returned error
// covers local submission only; at-most-once execution is all the
// caller may assume (DESIGN §5.13).
func (c *NetClient) CallOneWay(proc int, args []byte) error {
	if err := c.checkRequestSize(args, 0); err != nil {
		return err
	}
	c.oneWays.Add(1)
	probe, err := c.allow()
	if err != nil {
		return err
	}
	ctx := context.Background()
	w, err := c.getConn(ctx)
	if err != nil {
		return c.asyncObserve(probe, notSent(err))
	}
	wrote, werr := c.writeRequest(ctx, w, 0, uint32(proc)|wireFlagOneWay, args, nil)
	if werr != nil {
		c.emitEvent(TraceWriteFail, werr)
		c.connBroken(w, werr)
		c.brFailure()
		if !wrote {
			return notSent(fmt.Errorf("%w: send failed: %v", ErrConnClosed, werr))
		}
		return fmt.Errorf("%w: send failed mid-request: %v", ErrConnClosed, werr)
	}
	// A one-way produces no reply, so a successful write is the only
	// verdict a probe can ever deliver; taking it as success keeps the
	// half-open state from wedging under pure one-way traffic.
	if probe {
		c.brObserve(true, nil)
	}
	return nil
}

// NewBatch builds a submission batch over the network plane: staged
// frames coalesce into a single Write when Flush rings the doorbell —
// one syscall and one server-side read wakeup for N requests.
func (c *NetClient) NewBatch() *Batch {
	return &Batch{be: &netBatch{c: c}, stats: &c.batches}
}

// netBatch is the Batch backend over a NetClient. The first staged
// entry pins a connection generation; every entry in the batch rides
// that connection, and a flush failure retires it wholesale.
type netBatch struct {
	c   *NetClient
	w   *clientConn // the connection pinned at first stage; nil between batches
	buf []byte      // staged frames, written back-to-back by flush
	// probe records that a staged ONE-WAY entry was elected the
	// breaker's half-open probe: with no reply to observe, the flush
	// write is its verdict. Future-carrying entries ride their verdict
	// on pendingCall.probe instead.
	probe bool
}

func (nb *netBatch) stage(e *batchEnt) error {
	c := nb.c
	if err := c.checkRequestSize(e.args, 0); err != nil {
		return err
	}
	if e.fut != nil {
		e.fut.abandons = &c.timeouts
	}
	// A staged entry the breaker refuses fails here, and Batch.Call
	// resolves its future with ErrBreakerOpen.
	probe, err := c.allow()
	if err != nil {
		return err
	}
	// Pin a connection at the first staged entry: a batch is one
	// coalesced write, so every frame in it must ride one generation.
	if nb.w == nil {
		w, err := c.getConn(context.Background())
		if err != nil {
			return c.asyncObserve(probe, notSent(err))
		}
		nb.w = w
	}
	c.batchedCalls.Add(1)
	if e.oneWay {
		c.oneWays.Add(1)
		nb.buf = appendRequestFrame(nb.buf, 0, c.name, uint32(e.proc)|wireFlagOneWay, e.args, nil)
		if probe {
			nb.probe = true
		}
		return nil
	}
	c.asyncCalls.Add(1)
	// In-flight window, nonblocking first: when the window is full,
	// flush the staged frames — the server can then drain and reply,
	// freeing slots — before blocking for one. Blocking with frames
	// staged but unwritten would deadlock against our own window.
	select {
	case c.sem <- struct{}{}:
	default:
		if err := nb.flush(nil); err != nil {
			return c.asyncObserve(probe, err)
		}
		select {
		case c.sem <- struct{}{}:
		case <-c.closedCh:
			return c.asyncObserve(probe, notSent(ErrConnClosed))
		}
	}
	id, ok := c.register(pendingCall{fut: e.fut, gen: nb.w.gen, probe: probe}, nb.w, false)
	if !ok {
		<-c.sem
		return c.asyncObserve(probe, notSent(ErrConnClosed))
	}
	nb.buf = appendRequestFrame(nb.buf, id, c.name, uint32(e.proc), e.args, nil)
	return nil
}

func (nb *netBatch) flush(_ []batchEnt) error {
	if len(nb.buf) == 0 {
		return nil
	}
	c := nb.c
	w := nb.w
	buf := nb.buf
	nb.buf = nb.buf[:0]
	if w == nil {
		return notSent(ErrConnClosed)
	}
	if _, err := w.write(buf, time.Time{}, nil, nil, 0); err != nil {
		c.emitEvent(TraceWriteFail, err)
		// The failed write is one connection-level failure (it also
		// stands as the verdict of any one-way probe staged in this
		// batch); the swept futures below each count their own.
		c.brFailure()
		nb.probe = false
		nb.retire(err)
		return fmt.Errorf("%w: batch flush failed: %v", ErrConnClosed, err)
	}
	// Guard against a connection retired between staging and this write:
	// if a reader's connBroken swept this generation before our
	// entries were registered, nobody would ever complete them — re-run
	// the sweep, which is idempotent and claims map entries exactly once.
	c.mu.Lock()
	live := !c.closed && c.gen == w.gen
	c.mu.Unlock()
	if !live {
		if nb.probe {
			nb.probe = false
			c.brFailure()
		}
		nb.retire(errors.New("connection retired during batch staging"))
		return fmt.Errorf("%w: connection lost during batch flush", ErrConnClosed)
	}
	if nb.probe {
		// A one-way probe's successful coalesced write is its verdict
		// (see CallOneWay).
		nb.probe = false
		c.brObserve(true, nil)
	}
	return nil
}

// retire fails every pending entry of the pinned generation (via
// connBroken, which claims wait-map entries exactly once) and unpins,
// so the next stage re-dials.
func (nb *netBatch) retire(cause error) {
	if nb.w != nil {
		nb.c.connBroken(nb.w, cause)
	}
	nb.w = nil
}
