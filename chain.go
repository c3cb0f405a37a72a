package lrpc

// Server-side continuation chains: a client stages a pipeline of
// dependent calls — stage N's result becomes stage N+1's arguments —
// and submits the whole chain as one unit. The chain executor runs
// every stage inside the server's domain, through the same dispatch
// funnel a single call takes (validation, admission, panic
// containment, metrics), and only the final result crosses back.
//
// This is the paper's core argument applied to pipelines. LRPC
// eliminates the domain crossing per call; a pipeline driven from the
// client still pays one full round trip per dependent stage. A Chain
// pays one crossing for the whole pipeline: one frame on TCP, one
// doorbell on shm, one entry into the dispatch loop in-process.
//
// At-most-once stays exact across a mid-chain failure. A chain error
// carries the failing stage's index plus an executed-through vouch:
// stages below Executed ran exactly once, stages at and above it
// provably never ran. A chain that failed with Executed == 0 matches
// ErrNotExecuted, so the failover layers (Supervise*, failover.go)
// may replay it elsewhere without risking a double execution.
//
// Wire form (shared by the TCP frame and the shm slot descriptor, all
// integers little-endian):
//
//	chain    = "LBC1", u16 nstages, stage*
//	stage    = u32 proc, u32 off, u32 len, u32 prefixLen, prefix
//
// Stage 0's arguments are its prefix verbatim (off and len must be 0
// and the all-sentinel — there is no previous result to slice). Every
// later stage's arguments are prefix ++ prev[off : off+len], with len
// == chainAll meaning "everything from off".

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// MaxChainStages bounds one chain's stage count: deep enough for any
// realistic pipeline, small enough that a hostile descriptor cannot
// make the server loop unboundedly on one frame.
const MaxChainStages = 64

// chainMagic tags a chain descriptor ("LRPC Bound Chain v1").
const chainMagic = "LBC1"

// chainAll is the wire sentinel for ChainStage.Len == -1: slice the
// whole previous result from Off.
const chainAll = ^uint32(0)

// chainStageOverhead is one stage's fixed descriptor cost: proc, off,
// len, prefixLen.
const chainStageOverhead = 16

// chainHdrSize is the descriptor's fixed prelude: magic plus stage
// count.
const chainHdrSize = len(chainMagic) + 2

// bulkDirChain marks a shm slot carrying a chain descriptor instead
// of plain arguments (the next value after bulk.go's bulkDirSpill).
const bulkDirChain = 4

// ChainStage is one link of a Chain: call Proc with the stage's
// arguments. For stage 0 the arguments are Prefix verbatim; for every
// later stage they are Prefix followed by the previous stage's result
// sliced as [Off : Off+Len] (Len < 0 takes everything from Off).
type ChainStage struct {
	Proc   int
	Prefix []byte
	Off    int
	Len    int
}

// Chain is a staged pipeline of dependent calls, submitted as one
// unit with CallChain / CallChainAsync on any transport. Build it
// once with Add/AddSlice and reuse it freely: a Chain is read-only
// during submission.
type Chain struct {
	stages []ChainStage
}

// NewChain returns an empty chain. The first Add stages the head
// call; its prefix is the head's full argument block.
func NewChain() *Chain { return &Chain{} }

// Add stages a call whose arguments are prefix followed by the whole
// previous result (for the head stage, prefix alone). It returns the
// chain for fluent building.
func (ch *Chain) Add(proc int, prefix []byte) *Chain {
	return ch.AddSlice(proc, prefix, 0, -1)
}

// AddSlice stages a call whose arguments are prefix followed by the
// previous result sliced as [off : off+n] (n < 0 takes everything
// from off). The head stage ignores off and n.
func (ch *Chain) AddSlice(proc int, prefix []byte, off, n int) *Chain {
	if len(ch.stages) == 0 {
		off, n = 0, -1
	}
	ch.stages = append(ch.stages, ChainStage{Proc: proc, Prefix: prefix, Off: off, Len: n})
	return ch
}

// Len returns the staged stage count.
func (ch *Chain) Len() int { return len(ch.stages) }

// check validates the chain's shape before any submission: stage
// count, non-negative procs and offsets, and per-stage sizes a
// descriptor can carry.
func (ch *Chain) check() error {
	if ch == nil || len(ch.stages) == 0 {
		return fmt.Errorf("%w: empty chain", ErrBadProcedure)
	}
	if len(ch.stages) > MaxChainStages {
		return fmt.Errorf("%w: chain of %d stages exceeds MaxChainStages (%d)",
			ErrTooLarge, len(ch.stages), MaxChainStages)
	}
	for i, st := range ch.stages {
		if st.Proc < 0 {
			return fmt.Errorf("%w: chain stage %d proc %d", ErrBadProcedure, i, st.Proc)
		}
		if st.Off < 0 || st.Off > MaxOOBSize {
			return fmt.Errorf("%w: chain stage %d slice offset %d", ErrTooLarge, i, st.Off)
		}
		if st.Len > MaxOOBSize {
			return fmt.Errorf("%w: chain stage %d slice length %d", ErrTooLarge, i, st.Len)
		}
		if len(st.Prefix) > MaxOOBSize {
			return fmt.Errorf("%w: chain stage %d prefix of %d bytes", ErrTooLarge, i, len(st.Prefix))
		}
	}
	return nil
}

// appendChain appends the chain descriptor's canonical wire form.
// Callers must have validated the chain (Chain.check) first.
func appendChain(dst []byte, stages []ChainStage) []byte {
	dst = append(dst, chainMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(stages)))
	for i, st := range stages {
		off, ln := uint32(st.Off), chainAll
		if st.Len >= 0 {
			ln = uint32(st.Len)
		}
		if i == 0 {
			off, ln = 0, chainAll
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(st.Proc))
		dst = binary.LittleEndian.AppendUint32(dst, off)
		dst = binary.LittleEndian.AppendUint32(dst, ln)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.Prefix)))
		dst = append(dst, st.Prefix...)
	}
	return dst
}

// parseChain decodes a chain descriptor, enforcing the canonical
// form byte for byte: magic, a stage count in [1, MaxChainStages],
// per-stage bounds inside MaxOOBSize, a head stage with no slice, and
// not one trailing byte. Accepted input re-encodes (appendChain) to
// exactly the bytes parsed — the fuzz invariant.
func parseChain(data []byte) ([]ChainStage, error) {
	if len(data) < chainHdrSize || string(data[:len(chainMagic)]) != chainMagic {
		return nil, errors.New("lrpc: not a chain descriptor")
	}
	nstages := int(binary.LittleEndian.Uint16(data[len(chainMagic):chainHdrSize]))
	if nstages == 0 {
		return nil, errors.New("lrpc: chain with zero stages")
	}
	if nstages > MaxChainStages {
		return nil, fmt.Errorf("lrpc: chain of %d stages exceeds MaxChainStages (%d)",
			nstages, MaxChainStages)
	}
	rest := data[chainHdrSize:]
	stages := make([]ChainStage, 0, nstages)
	for i := 0; i < nstages; i++ {
		if len(rest) < chainStageOverhead {
			return nil, fmt.Errorf("lrpc: chain stage %d truncated", i)
		}
		proc := binary.LittleEndian.Uint32(rest[0:4])
		off := binary.LittleEndian.Uint32(rest[4:8])
		ln := binary.LittleEndian.Uint32(rest[8:12])
		prefixLen := int(binary.LittleEndian.Uint32(rest[12:16]))
		if off > MaxOOBSize {
			return nil, fmt.Errorf("lrpc: chain stage %d slice offset %d out of range", i, off)
		}
		if ln != chainAll && ln > MaxOOBSize {
			return nil, fmt.Errorf("lrpc: chain stage %d slice length %d out of range", i, ln)
		}
		if i == 0 && (off != 0 || ln != chainAll) {
			return nil, errors.New("lrpc: chain head stage cannot slice a previous result")
		}
		if prefixLen > MaxOOBSize {
			return nil, fmt.Errorf("lrpc: chain stage %d prefix of %d bytes out of range", i, prefixLen)
		}
		if len(rest) < chainStageOverhead+prefixLen {
			return nil, fmt.Errorf("lrpc: chain stage %d prefix truncated", i)
		}
		st := ChainStage{Proc: int(proc), Off: int(off), Len: -1}
		if ln != chainAll {
			st.Len = int(ln)
		}
		if prefixLen > 0 {
			st.Prefix = rest[chainStageOverhead : chainStageOverhead+prefixLen]
		}
		stages = append(stages, st)
		rest = rest[chainStageOverhead+prefixLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("lrpc: %d trailing bytes after chain descriptor", len(rest))
	}
	return stages, nil
}

// ChainError reports a chain that stopped at stage Stage, with the
// server's exact-execution vouch: stages below Executed ran exactly
// once; stages at and above Executed provably never ran. Executed ==
// Stage means the failing stage was rejected before its handler
// (validation, admission, slicing, a deadline between stages);
// Executed == Stage+1 means the handler ran and failed — it may have
// had side effects, so a retry is not safe for that stage.
type ChainError struct {
	Stage    int
	Executed int
	Err      error
}

func (e *ChainError) Error() string {
	return fmt.Sprintf("lrpc: chain stage %d (executed %d): %v", e.Stage, e.Executed, e.Err)
}

// Unwrap exposes the failing stage's error, so errors.Is sees the
// usual sentinels (ErrOverload, ErrCallTimeout, ...) through the
// chain wrapper.
func (e *ChainError) Unwrap() error { return e.Err }

// Is lets errors.Is(err, ErrNotExecuted) classify a chain whose very
// first stage never ran: nothing executed, so a failover layer may
// replay the whole chain elsewhere (at-most-once holds).
func (e *ChainError) Is(target error) bool {
	return target == ErrNotExecuted && e.Executed == 0
}

// wireSentinels is the one sentinel↔code table of the wire: the
// classification every failure record carries (appendFailure), on every
// plane, index+1 == wire code (0 is "plain text"). Append-only: codes
// are shared between client and server builds.
var wireSentinels = []error{
	ErrRevoked, ErrCallFailed, ErrBadProcedure, ErrOverload,
	ErrTooLarge, ErrNoAStacks, ErrCallTimeout, ErrQuotaExceeded,
	ErrNotExported, ErrTenantSuspended, ErrNotAdmitted,
}

// wireErrCode classifies a failure for the wire.
func wireErrCode(err error) uint32 {
	for i, s := range wireSentinels {
		if errors.Is(err, s) {
			return uint32(i + 1)
		}
	}
	return 0
}

// wireFailure is err's classification on the wire, its sentinel code and
// text: a relayed *RemoteError's own, verbatim, so a refusal crossing a
// second hop is not re-prefixed, and any other error's by wireErrCode.
func wireFailure(err error) (code uint32, text string) {
	var re *RemoteError
	switch {
	case errors.As(err, &re):
		return re.code, re.Msg
	case err != nil:
		return wireErrCode(err), err.Error()
	}
	return 0, ""
}

// appendFailure encodes a failed call as the one failure record every
// plane sends: u32 stage, u32 executed, u32 code, error text. A chain's
// *ChainError gives its stage and executed-through vouch; any other
// failure is stage 0, with executed 0 exactly when notExecuted vouches
// that no handler ran (a relayed *RemoteError's own vouch). The code and
// text are wireFailure's. maxLen > 0 bounds the total encoding (a shm
// slot cannot grow); the text is truncated to fit.
func appendFailure(dst []byte, err error, maxLen int) []byte {
	stage, executed := 0, 1
	var ce *ChainError
	if errors.As(err, &ce) {
		stage, executed, err = ce.Stage, ce.Executed, ce.Err
	} else if notExecuted(err) {
		executed = 0
	}
	code, text := wireFailure(err)
	if maxLen > 0 && 12+len(text) > maxLen {
		text = text[:max(maxLen-12, 0)]
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(stage))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(executed))
	dst = binary.LittleEndian.AppendUint32(dst, code)
	return append(dst, text...)
}

// parseFailure decodes appendFailure's record: a chain's (chain set) into
// a *ChainError whose Err is the stage's *RemoteError, any other call's
// into a *RemoteError carrying the vouch. A record its call could not
// have produced — short, a plain call's stage other than 0, a vouch past
// the stage — degrades to a *RemoteError saying so, never an error
// dropped on the floor.
func parseFailure(body []byte, chain bool) error {
	if len(body) < 12 {
		return &RemoteError{Msg: fmt.Sprintf("malformed failure record (%d bytes)", len(body))}
	}
	stage := int(binary.LittleEndian.Uint32(body[0:4]))
	executed := int(binary.LittleEndian.Uint32(body[4:8]))
	re := &RemoteError{Msg: string(body[12:]), code: binary.LittleEndian.Uint32(body[8:12])}
	limit := 0
	if chain {
		limit = MaxChainStages
	}
	if stage < 0 || stage > limit || executed < 0 || executed > stage+1 {
		return &RemoteError{Msg: fmt.Sprintf("malformed failure record (stage %d, executed %d)", stage, executed)}
	}
	if chain {
		return &ChainError{Stage: stage, Executed: executed, Err: re}
	}
	re.NotExecuted = executed == 0
	return re
}

// --- the executor ---

// chainScratch sizes one stage's working buffer: big enough for the
// staged arguments and for the procedure's declared A-stack, so a
// handler's ResultsBuf lands in it exactly as it would in a pooled
// stack.
func chainScratch(buf []byte, need int) []byte {
	if cap(buf) < need {
		return make([]byte, need)
	}
	return buf[:need]
}

// stageStackSize is the A-stack size stage proc's scratch must offer;
// an index the core is about to reject gets the default.
func (b *Binding) stageStackSize(proc int) int {
	if proc >= 0 && proc < len(b.exp.iface.Procs) {
		if n := b.exp.iface.Procs[proc].AStackSize; n > 0 {
			return n
		}
	}
	return DefaultAStackSize
}

// execChain runs every stage of a parsed chain inside the server's
// domain: one pass through the invocation core per stage — validate,
// admission, runHandler with panic containment, per-export accounting
// — with no A-stack pool round-trips: each run allocates two scratch
// stacks the core adopts in alternation, the previous stage's result
// feeding the next stage's arguments with one copy (the chain's copy A).
// The returned result aliases this run's scratch, which nothing else
// holds, so callers return it as it is.
//
// A non-nil deadline is checked between stages: a chain never
// abandons a running handler mid-stage (the captured-thread rule of
// the paper's 5.3 applies per stage), but it will not start the next
// stage past the deadline — and that refusal is vouched as
// not-executed for every remaining stage. The vouch follows the core's
// halves: a stage refused by begin never ran (Executed: k), a stage
// failed by finish did (Executed: k+1).
func (b *Binding) execChain(stages []ChainStage, deadline time.Time) ([]byte, *ChainError) {
	var bufA, bufB []byte
	var prev []byte // previous stage's result
	for k := range stages {
		st := &stages[k]
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, &ChainError{Stage: k, Executed: k,
				Err: timeoutError(fmt.Errorf("deadline expired before chain stage %d", k))}
		}
		// Slice the previous result. The head stage has no previous
		// result; its prefix is the whole argument block.
		var slice []byte
		if k > 0 {
			if st.Off > len(prev) {
				return nil, &ChainError{Stage: k, Executed: k, Err: fmt.Errorf(
					"%w: chain stage %d slices [%d:] of a %d-byte result",
					ErrBadProcedure, k, st.Off, len(prev))}
			}
			slice = prev[st.Off:]
			if st.Len >= 0 {
				if st.Len > len(slice) {
					return nil, &ChainError{Stage: k, Executed: k, Err: fmt.Errorf(
						"%w: chain stage %d slices [%d:%d] of a %d-byte result",
						ErrBadProcedure, k, st.Off, st.Off+st.Len, len(prev))}
				}
				slice = slice[:st.Len]
			}
		}
		// Stage the arguments on this stage's scratch stack (the
		// chain's copy A), alternating buffers so the copy never reads
		// the stack it is writing.
		argLen := len(st.Prefix) + len(slice)
		bufA = chainScratch(bufA, max(argLen, b.stageStackSize(st.Proc)))
		n := copy(bufA, st.Prefix)
		copy(bufA[n:], slice)

		inv := invocation{proc: st.Proc, args: bufA[:argLen], astack: bufA, deadline: deadline}
		if err := b.begin(&inv); err != nil {
			return nil, &ChainError{Stage: k, Executed: k, Err: err}
		}
		if err := b.finish(&inv); err != nil {
			return nil, &ChainError{Stage: k, Executed: k + 1, Err: err}
		}
		b.exp.chainStages.Add(1)
		prev = inv.out
		bufA, bufB = bufB, bufA
	}
	b.exp.chains.Add(1)
	return prev, nil
}

// Chains returns how many chains completed end to end in this
// export's domain.
func (e *Export) Chains() uint64 { return e.chains.Load() }

// ChainStages returns how many individual chain stages executed in
// this export's domain (each also counts in Calls).
func (e *Export) ChainStages() uint64 { return e.chainStages.Load() }

// CallChain runs the chain in the server's domain and returns the
// final stage's result. On a mid-chain failure the error is a
// *ChainError carrying the failing stage and the executed-through
// vouch; errors.Is sees the stage's underlying sentinel through it.
func (b *Binding) CallChain(ch *Chain) ([]byte, error) {
	return b.CallChainContext(context.Background(), ch)
}

// CallChainContext is CallChain under a context: the deadline is
// checked between stages (a running stage is never abandoned
// mid-handler; the per-stage admission queue also respects it).
func (b *Binding) CallChainContext(ctx context.Context, ch *Chain) ([]byte, error) {
	if err := ch.check(); err != nil {
		return nil, err
	}
	var deadline time.Time
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		}
	}
	out, cerr := b.execChain(ch.stages, deadline)
	if cerr != nil {
		return nil, cerr
	}
	return out, nil
}

// CallChainAsync submits the chain for execution off the calling
// goroutine and returns a pooled Future resolving to the final
// stage's result. The future contract matches CallAsync (async.go):
// collect exactly once with Wait or WaitContext. A waiter that abandons
// the future leaves the running chain an orphan, as CallAsync's does.
func (b *Binding) CallChainAsync(ch *Chain) (*Future, error) {
	if err := ch.check(); err != nil {
		return nil, err
	}
	f := newFuture()
	f.exp, f.sys, f.procName = b.exp, b.sys, "chain"
	// The activation record, published before the first stage so an
	// abandoning waiter always finds it (runAsync's, for the whole chain).
	act := &activation{done: make(chan struct{})}
	f.act.Store(act)
	go func() {
		out, cerr := b.execChain(ch.stages, time.Time{})
		close(act.done)
		if cerr != nil {
			f.complete(nil, cerr)
			return
		}
		f.complete(out, nil)
	}()
	return f, nil
}
