package lrpc

// The announcers' order (announce.go, broker.go): a registration is
// resolvable from the moment Register returns, so whatever the announcer
// records about it afterwards must not be observable half-done. The
// announceHook acts inside that window on every run.

import (
	"errors"
	"net"
	"testing"
	"time"
)

// onAnnounce runs f inside every announcer's window for name until the
// test ends.
func onAnnounce(t *testing.T, name string, f func()) {
	h := func(n string) {
		if n == name {
			f()
		}
	}
	announceHook.Store(&h)
	t.Cleanup(func() { announceHook.Store(nil) })
}

// TestBrokerHelloInsideAnnounceWindow: a tenant resolves the broker's
// fresh registry entry and says hello before Announce has stored the
// generation that entry's lease names. It is admitted under that
// generation, not the one the broker had before.
func TestBrokerHelloInsideAnnounceWindow(t *testing.T) {
	const name = "broker.window"
	bk, addr := startBrokerRig(t, BrokerOptions{Name: name})
	before := bk.Generation()
	reg := NewMapRegistry()
	type helloOut struct {
		r   brokerHelloResult
		err error
	}
	got := make(chan helloOut, 1)
	onAnnounce(t, name, func() {
		eps, err := reg.Resolve(name)
		if err != nil {
			got <- helloOut{err: err}
			return
		}
		go func() {
			conn, err := net.Dial("tcp", eps[0].Addr)
			if err != nil {
				got <- helloOut{err: err}
				return
			}
			defer conn.Close()
			r, err := brokerHello(conn, brokerHelloArgs{Tenant: "early", Service: "Arith"}, 5*time.Second)
			got <- helloOut{r, err}
		}()
		// A hello admitted under the old generation finishes inside the
		// window; one held for the announced generation cannot, and
		// this wait only gives a wrong order the time to show.
		select {
		case v := <-got:
			got <- v
		case <-time.After(100 * time.Millisecond):
		}
	})
	a, err := bk.Announce(reg, time.Minute, addr)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v.err != nil {
			t.Fatal(v.err)
		}
		if v.r.Gen != a.Lease() || bk.Generation() != a.Lease() {
			t.Fatalf("hello inside the announce window admitted under generation %d; announced %d, broker %d, before %d",
				v.r.Gen, a.Lease(), bk.Generation(), before)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hello inside the announce window never answered")
	}
}

// slowRegistry holds every Register until release closes.
type slowRegistry struct {
	Registry
	entered, release chan struct{}
}

func (r *slowRegistry) Register(name string, ttl time.Duration, eps ...Endpoint) (uint64, error) {
	close(r.entered)
	<-r.release
	return r.Registry.Register(name, ttl, eps...)
}

// TestBrokerHelloWaitsForSlowRegistration pins the price of admitting
// only under the announced generation: a hello to a broker that serves
// while its registration is slow (a registry election) is held until
// the registration returns, then admitted under its lease.
func TestBrokerHelloWaitsForSlowRegistration(t *testing.T) {
	bk, addr := startBrokerRig(t, BrokerOptions{Name: "broker.slow"})
	reg := &slowRegistry{Registry: NewMapRegistry(), entered: make(chan struct{}), release: make(chan struct{})}
	type annOut struct {
		a   *Announcement
		err error
	}
	ann := make(chan annOut, 1)
	go func() {
		a, err := bk.Announce(reg, time.Minute, addr)
		ann <- annOut{a, err}
	}()
	<-reg.entered
	got := make(chan brokerHelloResult, 1)
	go func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		r, err := brokerHello(conn, brokerHelloArgs{Tenant: "static", Service: "Arith"}, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		got <- r
	}()
	select {
	case r := <-got:
		t.Fatalf("hello answered under generation %d while the registration was in flight", r.Gen)
	case <-time.After(200 * time.Millisecond):
	}
	close(reg.release)
	v := <-ann
	if v.err != nil {
		t.Fatal(v.err)
	}
	select {
	case r := <-got:
		if r.Gen != v.a.Lease() {
			t.Fatalf("hello held across the registration admitted under generation %d, want the lease %d", r.Gen, v.a.Lease())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hello held across the registration never answered")
	}
}

// TestNetServerCloseInsideAnnounceWindow: Close runs after Announce's
// registration and before Announce records it. The registration is
// withdrawn, not left renewing for a closed port.
func TestNetServerCloseInsideAnnounceWindow(t *testing.T) {
	const name = "svc.window"
	ns, err := StartNetServer(NewSystem(), "127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	reg := NewMapRegistry()
	onAnnounce(t, name, func() { ns.Close() })
	if _, err := ns.Announce(reg, name, time.Minute); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Announce across Close = %v, want ErrConnClosed", err)
	}
	if eps, err := reg.Resolve(name); !errors.Is(err, ErrNoSuchName) {
		t.Fatalf("a closed server's registration survived: %v, %v", eps, err)
	}
}
