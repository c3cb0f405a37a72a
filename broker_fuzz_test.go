package lrpc

// Native fuzz target for a broker connection's first frame — the
// hostile-peer surface: any TCP peer reaches the broker's admission and
// control dispatch (Broker.handleConn) with a frame of its choosing. The
// target drives handleConn over net.Pipe with one frame and checks what
// comes back. Invariants: never panic or hang; a one-way or unparseable
// frame is never answered; every refusal is a failure record vouching
// executed 0 under ErrNotAdmitted's or ErrBadProcedure's code (or, for
// setpolicy, naming the policy document it could not read); a hello result answers only a well-formed
// hello, and no identifier beyond brokerMaxIdent is ever admitted.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

func FuzzBrokerFirstFrame(f *testing.F) {
	hello := func(h brokerHelloArgs) []byte {
		b, _ := json.Marshal(h)
		return b
	}
	ctl := func(procWord uint32, args []byte, h *BulkHandle) []byte {
		return appendRequestFrame(nil, 1, brokerCtlIface, procWord, args, h)[4:]
	}
	// Seeds: every procedure well-formed, plus the boundary liars. The
	// corpus under testdata holds first frames of the retired binary
	// control dialect the control interface replaced.
	f.Add(ctl(brokerProcHello, hello(brokerHelloArgs{Tenant: "tenant", Token: "s3cret", Service: "Arith", PrevGen: 7, PrevLease: 9}), nil))
	f.Add(ctl(brokerProcHello, hello(brokerHelloArgs{Tenant: "t"}), nil))
	f.Add(ctl(brokerProcStats, nil, nil))
	f.Add(ctl(brokerProcGetPolicy, nil, nil))
	f.Add(ctl(brokerProcSetPolicy, []byte("{}"), nil))
	f.Add([]byte{})
	f.Add(ctl(brokerProcHello, hello(brokerHelloArgs{Tenant: strings.Repeat("t", brokerMaxIdent+1)}), nil)) // ident liar
	f.Add(ctl(99, nil, nil))                                                                                // unknown procedure
	f.Add(ctl(brokerProcHello, append(hello(brokerHelloArgs{Tenant: "t"}), 0xCC), nil))                     // trailing garbage
	f.Add(ctl(brokerProcHello|wireFlagOneWay, hello(brokerHelloArgs{Tenant: "t"}), nil))
	f.Add(ctl(brokerProcHello, hello(brokerHelloArgs{Tenant: "t"}), NewBulkOut(make([]byte, 8))))
	f.Add(ctl(wireFlagChain, nil, nil))
	f.Add(appendRequestFrame(nil, 1, "Arith", 0, addArgs(1, 1), nil)[4:]) // a data call before any hello
	f.Add(ctl(brokerProcSetPolicy, []byte("{"), nil))

	f.Fuzz(func(t *testing.T, frame []byte) {
		bk := NewBroker(BrokerOptions{MaxControlFrame: 4096, Seed: 1})
		if err := bk.SetPolicy(&BrokerPolicy{AllowUnknown: true,
			Tenants: map[string]TenantPolicy{"tenant": {Token: "s3cret"}}}); err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		bk.wg.Add(1)
		go bk.handleConn(server)
		wrote := make(chan struct{})
		go func() {
			writeFrame(client, frame) // fails once the broker cuts or closes
			close(wrote)
		}()
		client.SetReadDeadline(time.Now().Add(10 * time.Second))
		reply, rerr := readFrame(client)
		client.Close()
		<-wrote
		bk.Close() // waits for handleConn

		if errors.Is(rerr, os.ErrDeadlineExceeded) {
			t.Fatalf("broker neither answered nor closed: %v", rerr)
		}
		id, name, proc, oneWay, bulk, chain, args, perr := parseRequest(frame)
		if perr == nil && bulk {
			_, _, args, perr = parseBulkHeader(args)
		}
		if rerr != nil {
			return // closed unanswered: always allowed
		}
		switch {
		case len(frame) > 4096 || perr != nil:
			t.Fatalf("an unreadable frame was answered: % x", reply)
		case oneWay:
			t.Fatalf("a one-way first frame was answered: % x", reply)
		case len(reply) < 9 || binary.LittleEndian.Uint64(reply) != id:
			t.Fatalf("reply % x does not answer call %d", reply, id)
		}
		status, body := reply[8], string(reply[9:])
		if status != 0 {
			if !(isRefusal(status, reply[9:], ErrNotAdmitted) ||
				isRefusal(status, reply[9:], ErrBadProcedure) ||
				proc == brokerProcSetPolicy && isRefusal(status, reply[9:], nil) &&
					strings.HasPrefix(body[12:], "lrpc: bad policy document")) {
				t.Fatalf("refusal status %d %q, want a refusal under ErrNotAdmitted or ErrBadProcedure", status, body)
			}
			return
		}
		if name != brokerCtlIface || bulk || chain || !json.Valid(reply[9:]) {
			t.Fatalf("status 0 %q for call %q proc %d (bulk %v chain %v)", body, name, proc, bulk, chain)
		}
		if proc != brokerProcHello {
			return
		}
		var h brokerHelloArgs
		if err := json.Unmarshal(args, &h); err != nil || h.Tenant == "" ||
			max(len(h.Tenant), len(h.Token), len(h.Service)) > brokerMaxIdent ||
			h.Tenant == "tenant" && h.Token != "s3cret" {
			t.Fatalf("hello %q admitted (%v)", args, err)
		}
		var r brokerHelloResult
		if err := json.Unmarshal(reply[9:], &r); err != nil || r.Gen != bk.Generation() {
			t.Fatalf("hello result %q (%v), want generation %d", body, err, bk.Generation())
		}
		_, tenants := bk.Snapshot()
		for _, ts := range tenants {
			if len(ts.Tenant) > brokerMaxIdent {
				t.Fatalf("admitted a %d-byte tenant", len(ts.Tenant))
			}
		}
	})
}
