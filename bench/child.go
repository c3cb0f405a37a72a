package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"lrpc"
)

// The cross-process workloads call a second OS process: this binary,
// re-executed with childEnv set. It serves bench.echo over the shm
// socket named in childSockEnv and over TCP loopback, plus a bare
// echo listener with no lrpc code on it (the kernel floor), prints one
// READY line, answers each "STATS" line on stdin with one JSON line, and
// exits when stdin closes.
const (
	childEnv        = "LRPC_BENCH_CHILD"
	childSockEnv    = "LRPC_BENCH_SOCK"
	childMetricsEnv = "LRPC_BENCH_METRICS"
)

// childStats is the server's side of the public counters.
type childStats struct {
	ExportCalls uint64              `json:"export_calls"`
	BulkP50Ns   float64             `json:"bulk_p50_ns"`
	Shm         lrpc.ShmServerStats `json:"shm"`
	CPUNs       int64               `json:"cpu_ns"`
}

func runChild() error {
	sys, exp, err := newServer(os.Getenv(childMetricsEnv) == "1")
	if err != nil {
		return err
	}
	tcpL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go sys.ServeNetwork(tcpL)
	rawL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go serveRawEcho(rawL)
	shmSrv := lrpc.NewShmServer(sys, lrpc.ShmServeOptions{})
	shmOK := "shm"
	if l, err := lrpc.ListenShm(os.Getenv(childSockEnv)); err == nil {
		go shmSrv.Serve(l)
	} else if errors.Is(err, lrpc.ErrShmUnsupported) {
		shmOK = "noshm"
	} else {
		return err
	}
	fmt.Printf("READY %s %s %s\n", tcpL.Addr(), rawL.Addr(), shmOK)
	in := bufio.NewScanner(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	for in.Scan() {
		sn := exp.MetricsSnapshot()
		if err := out.Encode(childStats{
			ExportCalls: sn.Calls,
			BulkP50Ns:   float64(sn.Bulk.Percentile(50)),
			Shm:         shmSrv.Stats(),
			CPUNs:       processCPUNs(),
		}); err != nil {
			return err
		}
	}
	return in.Err()
}

// serveRawEcho answers {u32 n, u32 m, n bytes} with m bytes on a plain
// net.Conn: the same bytes each way as an lrpc frame pair, none of its
// code.
func serveRawEcho(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			buf := make([]byte, 4096)
			for {
				if _, err := io.ReadFull(conn, buf[:8]); err != nil {
					return
				}
				n, m := int(le.Uint32(buf)), int(le.Uint32(buf[4:]))
				if n > len(buf) || m > len(buf) {
					return
				}
				if _, err := io.ReadFull(conn, buf[:n]); err != nil {
					return
				}
				if _, err := conn.Write(buf[:m]); err != nil {
					return
				}
			}
		}()
	}
}

// child is the parent's handle on the server process.
type child struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	stdout  *bufio.Reader
	dir     string
	sock    string
	tcpAddr string
	rawAddr string
	hasShm  bool
}

// startChild re-executes this binary as the server and waits for its
// READY line. The socket lives in a temporary directory under dir, named
// by a relative path when dir is one, so the path stays short however
// deep the checkout is. On any failure nothing is left behind.
func startChild(dir string, metricsOn bool) (c *child, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if dir, err = os.MkdirTemp(dir, "server-"); err != nil {
		return nil, err
	}
	c = &child{dir: dir, sock: filepath.Join(dir, "echo.sock")}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	c.cmd = exec.Command(exe)
	c.cmd.Env = append(os.Environ(), childEnv+"=1", childSockEnv+"="+c.sock)
	if metricsOn {
		c.cmd.Env = append(c.cmd.Env, childMetricsEnv+"=1")
	}
	c.cmd.Stderr = os.Stderr
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return c, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return c, err
	}
	c.stdout = bufio.NewReader(stdout)
	if err = c.cmd.Start(); err != nil {
		c.cmd = nil
		return c, err
	}
	line, err := c.stdout.ReadString('\n')
	if err != nil {
		return c, fmt.Errorf("server handshake: %w", err)
	}
	f := strings.Fields(line)
	if len(f) != 4 || f[0] != "READY" {
		return c, fmt.Errorf("server handshake: %q", line)
	}
	c.tcpAddr, c.rawAddr, c.hasShm = f[1], f[2], f[3] == "shm"
	return c, nil
}

func (c *child) stats() (childStats, error) {
	var st childStats
	if _, err := io.WriteString(c.stdin, "STATS\n"); err != nil {
		return st, err
	}
	line, err := c.stdout.ReadBytes('\n')
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(line, &st)
}

// close ends the server (stdin EOF), reaps it and removes its socket
// directory.
func (c *child) close() error {
	var err error
	if c.cmd != nil && c.cmd.Process != nil {
		c.stdin.Close()
		err = c.cmd.Wait()
	}
	if rerr := os.RemoveAll(c.dir); err == nil {
		err = rerr
	}
	return err
}
