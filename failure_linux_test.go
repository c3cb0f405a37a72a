package lrpc

import (
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"
)

// Procedures of the cross-plane failure interface.
const (
	fpHold  = iota // parks until released, holding its A-stack and admission slot
	fpPanic        // panics: ErrCallFailed after the handler ran
	fpNop
)

// TestFailureContractAcrossPlanes raises each failure once per plane —
// in-process, ShmClient, NetClient and a BrokerSession over LocalUpstream,
// all reaching the same server-side binding — and holds every plane to
// one contract: the same errors.Is(err, sentinel), a *RemoteError on
// every remote plane, and errors.Is(err, ErrNotExecuted) on a remote
// plane exactly when notExecuted holds for the in-process error.
func TestFailureContractAcrossPlanes(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	iface := func(name string) *Interface {
		return &Interface{Name: name, Procs: []Proc{
			{Name: "Hold", NumAStacks: 1, Handler: func(c *Call) {
				entered <- struct{}{}
				<-release
			}},
			{Name: "Panic", Handler: func(c *Call) { panic("handler fault") }},
			{Name: "Nop", Handler: func(c *Call) {}},
		}}
	}
	sys := NewSystem()
	exp, err := sys.Export(iface("Fail"))
	if err != nil {
		t.Fatal(err)
	}
	// FailX is the same interface reached through a binding that fails
	// on A-stack exhaustion.
	if _, err := sys.Export(iface("FailX")); err != nil {
		t.Fatal(err)
	}
	bindings := map[string]*Binding{}
	for _, name := range []string{"Fail", "FailX"} {
		if bindings[name], err = sys.Import(name); err != nil {
			t.Fatal(err)
		}
	}
	bindings["FailX"].Policy = FailOnExhaustion

	// TCP: the server loop over a route seeded with those bindings.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		opts := ServeOptions{}
		opts.fill()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			rt := &importRoute{s: sys, maxBulk: opts.MaxBulkBytes, bindings: map[string]*Binding{
				"Fail": bindings["Fail"], "FailX": bindings["FailX"]}}
			go newConnLoop(conn, rt, opts).serve()
		}
	}()
	// The broker relays to the same bindings.
	bk := NewBroker(BrokerOptions{})
	for name, b := range bindings {
		bk.SetUpstream(name, LocalUpstream(b))
	}
	bkAddr, err := bk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bk.Close() })
	// Shm: a ShmServer over the same system. Its slot is the call's
	// A-stack, so it has no pool to exhaust.
	sock := filepath.Join(t.TempDir(), "lrpc.sock")
	sl, err := ListenShm(sock)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewShmServer(sys, ShmServeOptions{})
	go sv.Serve(sl)
	t.Cleanup(func() { sv.Close() })

	type plane struct {
		name   string
		remote bool
		call   map[string]func(proc int) error
	}
	planes := []plane{{name: "in-process"}, {name: "shm", remote: true}, {name: "tcp", remote: true}, {name: "broker", remote: true}}
	for i := range planes {
		planes[i].call = map[string]func(int) error{}
	}
	for name, b := range bindings {
		planes[0].call[name] = func(proc int) error { _, err := b.Call(proc, nil); return err }
		nc, err := DialInterfaceOpts("tcp", l.Addr().String(), name, DialOptions{CallTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		planes[2].call[name] = func(proc int) error { _, err := nc.Call(proc, nil); return err }
		bs, err := SuperviseBroker(BrokerTenantOpts{Tenant: "t-" + name, Service: name, BrokerAddrs: []string{bkAddr},
			Net: DialOptions{CallTimeout: 5 * time.Second}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bs.Close() })
		planes[3].call[name] = func(proc int) error { _, err := bs.Call(proc, nil); return err }
	}
	sc, err := DialShm(sock, "Fail")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	planes[1].call["Fail"] = func(proc int) error { _, err := sc.Call(proc, nil); return err }

	// hold parks one Hold call on name's binding until the returned
	// function releases it.
	hold := func(name string) func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			bindings[name].Call(fpHold, nil)
		}()
		<-entered
		return func() { release <- struct{}{}; <-done }
	}
	cases := []struct {
		name     string
		sentinel error
		iface    string
		proc     int
		arm      func() (disarm func())
	}{
		{"overload", ErrOverload, "Fail", fpNop, func() func() {
			exp.SetAdmission(AdmissionConfig{MaxConcurrent: 1})
			unhold := hold("Fail")
			return func() { unhold(); exp.SetAdmission(AdmissionConfig{}) }
		}},
		{"bad procedure", ErrBadProcedure, "Fail", 99, nil},
		{"handler panic", ErrCallFailed, "Fail", fpPanic, nil},
		{"A-stacks exhausted", ErrNoAStacks, "FailX", fpHold, func() func() { return hold("FailX") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.arm != nil {
				defer c.arm()()
			}
			var local error
			for _, p := range planes {
				call := p.call[c.iface]
				if call == nil {
					continue // shm: no A-stack pool
				}
				err := call(c.proc)
				if !p.remote {
					local = err
				}
				if !errors.Is(err, c.sentinel) {
					t.Errorf("%s: %v, want errors.Is %v", p.name, err, c.sentinel)
				}
				if !p.remote {
					continue
				}
				if !errors.As(err, new(*RemoteError)) {
					t.Errorf("%s: %T %v, want a *RemoteError", p.name, err, err)
				}
				if got, want := errors.Is(err, ErrNotExecuted), notExecuted(local); got != want {
					t.Errorf("%s: errors.Is(ErrNotExecuted) = %v, want %v as in-process (%v)", p.name, got, want, err)
				}
			}
		})
	}
}
