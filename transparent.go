package lrpc

import (
	"context"
	"io"
)

// transport is the full client surface the three planes — Binding,
// ShmClient, NetClient — already share: the Caller pair plus the async,
// batch, chain and bulk entry points.
type transport interface {
	Caller
	CallAsync(proc int, args []byte) (*Future, error)
	CallOneWay(proc int, args []byte) error
	NewBatch() *Batch
	CallChain(ch *Chain) ([]byte, error)
	CallChainContext(ctx context.Context, ch *Chain) ([]byte, error)
	CallChainAsync(ch *Chain) (*Future, error)
	CallBulk(proc int, args []byte, h *BulkHandle) ([]byte, error)
}

// TransparentBinding serves the paper's transparency requirement: one
// callable handle whose transport — in-process direct transfer,
// same-machine shared memory, or cross-machine TCP — is decided once, at
// bind time. The ladder is the paper's Table 1 read as a decision
// procedure: prefer the cheapest plane that actually crosses the
// boundary the peers sit on.
//
// Its call methods — Call, CallContext, CallAsync, CallOneWay, NewBatch,
// CallChain, CallChainContext, CallChainAsync, CallBulk — are the chosen
// plane's own, promoted: the binding adds nothing between caller and
// transport.
type TransparentBinding struct {
	transport
}

// BindLocal wraps a local binding.
func BindLocal(b *Binding) *TransparentBinding { return &TransparentBinding{b} }

// BindShm wraps a same-machine, separate-process shared-memory session.
func BindShm(c *ShmClient) *TransparentBinding { return &TransparentBinding{c} }

// BindRemote wraps a network client.
func BindRemote(c *NetClient) *TransparentBinding { return &TransparentBinding{c} }

// Remote reports whether calls cross the machine boundary.
func (tb *TransparentBinding) Remote() bool {
	_, ok := tb.transport.(*NetClient)
	return ok
}

// SameMachine reports whether calls cross a process boundary but stay
// on this machine (the shared-memory plane).
func (tb *TransparentBinding) SameMachine() bool {
	_, ok := tb.transport.(*ShmClient)
	return ok
}

// Close releases the transport behind the binding: the shm session or
// TCP connection is closed; a purely local binding holds no transport
// resources and is left to the export's lifecycle.
func (tb *TransparentBinding) Close() error {
	if c, ok := tb.transport.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
