package lrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func arithInterface() *Interface {
	return &Interface{
		Name: "Arith",
		Procs: []Proc{
			{Name: "Add", AStackSize: 8, Handler: func(c *Call) {
				a := binary.LittleEndian.Uint32(c.Args()[0:4])
				b := binary.LittleEndian.Uint32(c.Args()[4:8])
				binary.LittleEndian.PutUint32(c.ResultsBuf(4), a+b)
			}},
			{Name: "Echo", Handler: func(c *Call) {
				copy(c.ResultsBuf(len(c.Args())), c.Args())
			}},
			{Name: "Null", AStackSize: 8, Handler: func(c *Call) {}},
		},
	}
}

func TestExportImportCall(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	args := make([]byte, 8)
	binary.LittleEndian.PutUint32(args[0:4], 40)
	binary.LittleEndian.PutUint32(args[4:8], 2)
	res, err := b.Call(0, args)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(res); got != 42 {
		t.Fatalf("Add = %d, want 42", got)
	}
	if res2, err := b.CallByName("Add", args); err != nil || binary.LittleEndian.Uint32(res2) != 42 {
		t.Fatalf("CallByName: %v %v", res2, err)
	}
}

func TestExportValidation(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(&Interface{Name: "Empty"}); err == nil {
		t.Error("empty interface exported")
	}
	if _, err := sys.Export(&Interface{Name: "NoHandler", Procs: []Proc{{Name: "X"}}}); err == nil {
		t.Error("handlerless procedure exported")
	}
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Export(arithInterface()); err == nil {
		t.Error("duplicate export allowed")
	}
	if _, err := sys.Import("Nope"); !errors.Is(err, ErrNotExported) {
		t.Errorf("import of unexported: %v", err)
	}
}

func TestCallErrors(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Call(99, nil); !errors.Is(err, ErrBadProcedure) {
		t.Errorf("bad proc: %v", err)
	}
	if _, err := b.Call(1, make([]byte, MaxOOBSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("huge args: %v", err)
	}
}

func TestForgedBindingRejected(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	forged := *b
	forged.nonce ^= 0xFEEDFACE
	if _, err := forged.Call(2, nil); !errors.Is(err, ErrRevoked) {
		t.Errorf("forged nonce: %v", err)
	}
	forged = *b
	forged.id += 99
	if _, err := forged.Call(2, nil); !errors.Is(err, ErrRevoked) {
		t.Errorf("forged id: %v", err)
	}
	if _, err := b.Call(2, nil); err != nil {
		t.Errorf("honest call: %v", err)
	}
}

func TestTerminateRevokesBindings(t *testing.T) {
	sys := NewSystem()
	e, err := sys.Export(arithInterface())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Call(2, nil); err != nil {
		t.Fatal(err)
	}
	e.Terminate()
	if !e.Terminated() {
		t.Error("export not terminated")
	}
	if _, err := b.Call(2, nil); !errors.Is(err, ErrRevoked) {
		t.Errorf("post-terminate call: %v", err)
	}
	// The name is free for a new server — and old bindings still fail.
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Errorf("re-export after terminate: %v", err)
	}
	if _, err := b.Call(2, nil); !errors.Is(err, ErrRevoked) {
		t.Errorf("old binding after re-export: %v", err)
	}
}

func TestTerminateDuringCallDeliversCallFailed(t *testing.T) {
	sys := NewSystem()
	started := make(chan struct{})
	release := make(chan struct{})
	var e *Export
	iface := &Interface{Name: "Slow", Procs: []Proc{{
		Name: "Block", AStackSize: 8,
		Handler: func(c *Call) {
			close(started)
			<-release
		},
	}}}
	e, err := sys.Export(iface)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Slow")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := b.Call(0, nil)
		errCh <- err
	}()
	<-started
	e.Terminate()
	close(release)
	if err := <-errCh; !errors.Is(err, ErrCallFailed) {
		t.Errorf("call during terminate: %v, want ErrCallFailed", err)
	}
}

func TestProtectArgsCopiesBeforeHandler(t *testing.T) {
	sys := NewSystem()
	var seen []byte
	iface := &Interface{Name: "P", Procs: []Proc{
		{Name: "Protected", AStackSize: 16, ProtectArgs: true, Handler: func(c *Call) {
			seen = c.Args() // keep the reference; must be a private copy
			c.ResultsBuf(0)
		}},
		{Name: "Shared", AStackSize: 16, Handler: func(c *Call) {
			seen = c.Args()
			c.ResultsBuf(0)
		}},
	}}
	if _, err := sys.Export(iface); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("P")
	if err != nil {
		t.Fatal(err)
	}
	args := []byte{1, 2, 3, 4}
	if _, err := b.Call(0, args); err != nil {
		t.Fatal(err)
	}
	protectedRef := seen
	if _, err := b.Call(1, args); err != nil {
		t.Fatal(err)
	}
	sharedRef := seen
	// The shared reference aliases the pool's A-stack; the protected one
	// must not (its backing array survives pool reuse unchanged).
	if &sharedRef[0] == &protectedRef[0] {
		t.Error("ProtectArgs did not produce a private copy")
	}
}

func TestLargeArgumentsBypassAStack(t *testing.T) {
	sys := NewSystem()
	iface := &Interface{Name: "Blob", Procs: []Proc{{
		Name: "Echo",
		Handler: func(c *Call) {
			copy(c.ResultsBuf(len(c.Args())), c.Args())
		},
	}}}
	if _, err := sys.Export(iface); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Blob")
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xCD}, 100_000)
	res, err := b.Call(0, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, big) {
		t.Error("large echo corrupted data")
	}
}

func TestCallAppendReusesBuffer(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	args := []byte{1, 2, 3}
	res, err := b.CallAppend(1, args, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, args) {
		t.Fatalf("echo = %v", res)
	}
	if &res[0] != &buf[0:1][0] {
		t.Error("CallAppend did not use the provided buffer")
	}
}

func TestConcurrentCallsSafe(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			args := make([]byte, 8)
			for i := 0; i < 2000; i++ {
				binary.LittleEndian.PutUint32(args[0:4], uint32(g))
				binary.LittleEndian.PutUint32(args[4:8], uint32(i))
				res, err := b.Call(0, args)
				if err != nil {
					t.Error(err)
					return
				}
				if got := binary.LittleEndian.Uint32(res); got != uint32(g+i) {
					t.Errorf("Add(%d,%d) = %d", g, i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := b.exp.Calls(); got != 16000 {
		t.Errorf("calls = %d, want 16000", got)
	}
}

// TestPropertyEchoRoundTrip: any payload round-trips unchanged through
// both the LRPC path and the message path.
func TestPropertyEchoRoundTrip(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Arith")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := sys.ImportMessage("Arith", MessageConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	f := func(payload []byte) bool {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		r1, err1 := b.Call(1, payload)
		r2, err2 := mb.Call(1, payload)
		return err1 == nil && err2 == nil &&
			bytes.Equal(r1, payload) && bytes.Equal(r2, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageTransport(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []MessageConfig{
		{},
		{Workers: 2},
	} {
		mb, err := sys.ImportMessage("Arith", cfg)
		if err != nil {
			t.Fatal(err)
		}
		args := make([]byte, 8)
		binary.LittleEndian.PutUint32(args[0:4], 30)
		binary.LittleEndian.PutUint32(args[4:8], 12)
		res, err := mb.Call(0, args)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(res); got != 42 {
			t.Errorf("msg Add = %d, want 42", got)
		}
		if _, err := mb.Call(77, nil); !errors.Is(err, ErrBadProcedure) {
			t.Errorf("bad proc over messages: %v", err)
		}
		mb.Close()
		mb.Close() // idempotent
	}
}

func TestMessageTransportConcurrent(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	mb, err := sys.ImportMessage("Arith", MessageConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := []byte{9, 9, 9}
			for i := 0; i < 500; i++ {
				res, err := mb.Call(1, payload)
				if err != nil || !bytes.Equal(res, payload) {
					t.Errorf("echo: %v %v", res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMessageTerminate(t *testing.T) {
	sys := NewSystem()
	e, err := sys.Export(arithInterface())
	if err != nil {
		t.Fatal(err)
	}
	mb, err := sys.ImportMessage("Arith", MessageConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	e.Terminate()
	if _, err := mb.Call(2, nil); !errors.Is(err, ErrRevoked) {
		t.Errorf("post-terminate message call: %v", err)
	}
}

func TestNames(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.Export(arithInterface()); err != nil {
		t.Fatal(err)
	}
	names := sys.Names()
	if len(names) != 1 || names[0] != "Arith" {
		t.Errorf("Names = %v", names)
	}
}

func TestShareGroupPoolsAreShared(t *testing.T) {
	sys := NewSystem()
	iface := &Interface{Name: "Shared", Procs: []Proc{
		{Name: "A", AStackSize: 16, NumAStacks: 2, ShareGroup: "g",
			Handler: func(c *Call) { c.ResultsBuf(0) }},
		{Name: "B", AStackSize: 32, ShareGroup: "g",
			Handler: func(c *Call) { copy(c.ResultsBuf(len(c.Args())), c.Args()) }},
		{Name: "C", AStackSize: 16,
			Handler: func(c *Call) { c.ResultsBuf(0) }},
	}}
	if _, err := sys.Export(iface); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Import("Shared")
	if err != nil {
		t.Fatal(err)
	}
	if b.pools[0] != b.pools[1] {
		t.Error("same-group procedures got distinct pools")
	}
	if b.pools[0] == b.pools[2] {
		t.Error("ungrouped procedure joined the shared pool")
	}
	// The shared pool grew to the group's largest member (32 bytes), so
	// B's calls fit even through A's declared 16-byte size.
	payload := bytes.Repeat([]byte{6}, 32)
	res, err := b.Call(1, payload)
	if err != nil || !bytes.Equal(res, payload) {
		t.Fatalf("B over shared pool: %v %v", res, err)
	}
	// Group pool is sized by the members' combined stack counts: A's
	// declared 2 plus B's default, exactly as the ShareGroup doc promises.
	want := 2 + DefaultNumAStacks
	if got := b.pools[0].seeded; got != want {
		t.Errorf("shared pool has %d stacks, want %d", got, want)
	}
}

func TestAStackPolicies(t *testing.T) {
	mkSys := func() (*System, *Binding, chan struct{}, chan struct{}) {
		sys := NewSystem()
		entered := make(chan struct{}, 8)
		release := make(chan struct{})
		iface := &Interface{Name: "Slow", Procs: []Proc{{
			Name: "Hold", AStackSize: 8, NumAStacks: 1,
			Handler: func(c *Call) {
				entered <- struct{}{}
				<-release
				c.ResultsBuf(0)
			},
		}}}
		if _, err := sys.Export(iface); err != nil {
			t.Fatal(err)
		}
		b, err := sys.Import("Slow")
		if err != nil {
			t.Fatal(err)
		}
		return sys, b, entered, release
	}

	t.Run("fail", func(t *testing.T) {
		_, b, entered, release := mkSys()
		b.Policy = FailOnExhaustion
		go b.Call(0, nil)
		<-entered
		if _, err := b.Call(0, nil); !errors.Is(err, ErrNoAStacks) {
			t.Errorf("overlapping call: %v, want ErrNoAStacks", err)
		}
		close(release)
	})

	t.Run("wait", func(t *testing.T) {
		_, b, entered, release := mkSys()
		b.Policy = WaitForAStack
		first := make(chan error, 1)
		go func() { _, err := b.Call(0, nil); first <- err }()
		<-entered
		second := make(chan error, 1)
		go func() { _, err := b.Call(0, nil); second <- err }()
		// The second call must be parked on the pool, not failing.
		select {
		case err := <-second:
			t.Fatalf("second call returned early: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
		close(release) // let the first call finish; second proceeds
		<-entered
		if err := <-first; err != nil {
			t.Errorf("first: %v", err)
		}
		if err := <-second; err != nil {
			t.Errorf("second: %v", err)
		}
	})

	t.Run("allocate", func(t *testing.T) {
		_, b, entered, release := mkSys()
		b.Policy = AllocateAStack
		go b.Call(0, nil)
		<-entered
		done := make(chan error, 1)
		go func() { _, err := b.Call(0, nil); done <- err }()
		<-entered // overflow stack let the second call in concurrently
		close(release)
		if err := <-done; err != nil {
			t.Errorf("second: %v", err)
		}
	})
}
