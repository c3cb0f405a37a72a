//go:build linux

package gentest

import (
	"path/filepath"
	"testing"

	"lrpc"
)

func init() {
	planes = append(planes, plane{"ShmClient", func(t *testing.T, s *server) lrpc.Caller {
		sock := filepath.Join(t.TempDir(), "gentest.sock")
		l, err := lrpc.ListenShm(sock)
		if err != nil {
			t.Fatal(err)
		}
		sv := lrpc.NewShmServer(s.sys, lrpc.ShmServeOptions{})
		go sv.Serve(l)
		t.Cleanup(func() { sv.Close() })
		c, err := lrpc.DialShm(sock, FileOpsInterfaceName)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}})
}
