//go:build !linux

package lrpc

// Stubs for the shared-memory transport on platforms without it. Every
// entry point fails with ErrShmUnsupported (the call entries through the
// two drivers below); the types exist so that TransparentBinding's
// three-way dispatch and cross-platform callers compile everywhere, and
// CI skips (rather than breaks) off linux.

import (
	"context"
	"net"
)

// ShmServer is unavailable on this platform; see shm.go (linux).
type ShmServer struct{}

// NewShmServer returns a server whose Serve always fails with
// ErrShmUnsupported.
func NewShmServer(sys *System, opts ShmServeOptions) *ShmServer { return &ShmServer{} }

// Serve fails with ErrShmUnsupported.
func (sv *ShmServer) Serve(l *net.UnixListener) error {
	if l != nil {
		l.Close()
	}
	return ErrShmUnsupported
}

// Close is a no-op on this platform.
func (sv *ShmServer) Close() error { return nil }

// Stats returns zeroes on this platform.
func (sv *ShmServer) Stats() ShmServerStats { return ShmServerStats{} }

// ListenShm fails with ErrShmUnsupported.
func ListenShm(path string) (*net.UnixListener, error) { return nil, ErrShmUnsupported }

// ServeShm fails with ErrShmUnsupported.
func (s *System) ServeShm(l *net.UnixListener) error {
	if l != nil {
		l.Close()
	}
	return ErrShmUnsupported
}

// ShmClient is unavailable on this platform; see shm.go (linux).
type ShmClient struct{}

// DialShm fails with ErrShmUnsupported.
func DialShm(path, name string) (*ShmClient, error) { return nil, ErrShmUnsupported }

// DialShmOpts fails with ErrShmUnsupported.
func DialShmOpts(path, name string, opts ShmDialOptions) (*ShmClient, error) {
	return nil, ErrShmUnsupported
}

// Name returns "" on this platform.
func (c *ShmClient) Name() string { return "" }

// Slots returns 0 on this platform.
func (c *ShmClient) Slots() int { return 0 }

// SlotSize returns 0 on this platform.
func (c *ShmClient) SlotSize() int { return 0 }

// BulkBytes returns 0 on this platform.
func (c *ShmClient) BulkBytes() int64 { return 0 }

// call and callAsync are the two drivers every call entry in
// shm_common.go is sugar over; here they fail with ErrShmUnsupported.
func (c *ShmClient) call(context.Context, shmReq, []byte) ([]byte, error) {
	return nil, ErrShmUnsupported
}

func (c *ShmClient) callAsync(shmReq) (*Future, error) { return nil, ErrShmUnsupported }

// CallOneWay fails with ErrShmUnsupported.
func (c *ShmClient) CallOneWay(proc int, args []byte) error { return ErrShmUnsupported }

// NewBatch returns a batch whose every operation fails with
// ErrShmUnsupported, so cross-platform batch code compiles and fails
// uniformly at submission time.
func (c *ShmClient) NewBatch() *Batch {
	return &Batch{be: errBackend{err: ErrShmUnsupported}}
}

// Close is a no-op on this platform.
func (c *ShmClient) Close() error { return nil }

// Stats returns zeroes on this platform.
func (c *ShmClient) Stats() ShmClientStats { return ShmClientStats{} }

// peerDied is false on this platform: no session ever lived.
func (c *ShmClient) peerDied() bool { return false }
