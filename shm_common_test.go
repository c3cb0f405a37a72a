package lrpc

import (
	"errors"
	"testing"
)

// TestShmInvalidChainReportsItself pins the portable call surface: a
// malformed chain is refused by the entry itself, before either call
// driver runs, so it reports its own error on every platform — never
// ErrShmUnsupported where the plane is stubbed. The zero ShmClient is
// never touched.
func TestShmInvalidChainReportsItself(t *testing.T) {
	c := &ShmClient{}
	if _, err := c.CallChain(NewChain()); !errors.Is(err, ErrBadProcedure) {
		t.Fatalf("CallChain(empty) = %v, want ErrBadProcedure", err)
	}
	if _, err := c.CallChainAsync(nil); !errors.Is(err, ErrBadProcedure) {
		t.Fatalf("CallChainAsync(nil) = %v, want ErrBadProcedure", err)
	}
}
