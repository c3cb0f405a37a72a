//go:build linux

package lrpc

import (
	"path/filepath"
	"testing"
)

// The real shared-memory plane joins the differential table of
// dispatch_test.go: the fixture's system is served over a socket and the
// call crosses the segment, so the doorbell worker, callSharedBulk and
// the slot's error code word are all between the caller and the core.
// The session dials before the scenario is armed; its slots are the
// default size, so the fixture's out-of-band results travel in-band here
// — the bytes compared are the same.
func init() {
	// The server half of the plane on a heap-backed slot: arguments that
	// fit are staged on it as the client would, larger ones arrive out of
	// band as a spilled call's do.
	dispatchEntries = append(dispatchEntries, dispatchEntry{
		name:   "callSharedBulk",
		adopts: true,
		open: func(_ *testing.T, fx *dispatchFixture) func(int, []byte) ([]byte, error) {
			return func(proc int, args []byte) ([]byte, error) {
				slot := make([]byte, dispatchStack)
				if len(args) <= len(slot) {
					args = slot[:copy(slot, args)]
				}
				resLen, oob, _, err := fx.b.callSharedBulk(proc, slot, args, nil, 0, 0)
				if err != nil || oob != nil {
					return oob, err
				}
				return slot[:resLen], nil
			}
		},
	})
	dispatchEntries = append(dispatchEntries, dispatchEntry{
		name:   "ShmClient.Call",
		adopts: true,
		open: func(t *testing.T, fx *dispatchFixture) func(int, []byte) ([]byte, error) {
			sock := filepath.Join(t.TempDir(), "diff.sock")
			l, err := ListenShm(sock)
			if err != nil {
				t.Fatal(err)
			}
			sv := NewShmServer(fx.sys, ShmServeOptions{})
			go sv.Serve(l)
			t.Cleanup(func() { sv.Close() })
			c, err := DialShm(sock, "Diff")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c.Call
		},
	})
}
