//go:build !unix

package lrpc

import (
	"io"
	"net"
	"time"
)

// newProbingReader is conn itself where read(2) on a socket descriptor
// is not available: every TCP read parks on the netpoller at once.
func newProbingReader(conn net.Conn, _ time.Duration) io.Reader { return conn }

// parkNext does nothing: no read here probes.
func parkNext(io.Reader) {}
