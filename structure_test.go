package lrpc

// The structure guards. Each path the package writes once — the
// invocation core's dispatch (DESIGN §5.17), supervised recovery
// (§5.10), the TCP server loop and client (§5.15, §5.13), the shm
// client's slot lifecycle (§5.11), the failure record every plane
// sends — has a cap on the sites that would
// mean a second, hand-copied path. The root package's non-test files are
// parsed and sites matched on the syntax tree by their callee or
// operand, so comments and string literals never count.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// structureCap is one guard: at most max sites in files (the whole
// package when nil) where match holds, each inside function in when in
// is set. With within set, only sites inside those functions count.
type structureCap struct {
	why    string // what one site too many would be
	files  []string
	max    int
	in     []string // the only functions a site may be in
	within []string
	match  func(n ast.Node) bool
}

// callee renders the function a call names, as written: "c.begin",
// "b.adm.enter", "parseRequest".
func callee(n ast.Node) (string, *ast.CallExpr) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	return types.ExprString(call.Fun), call
}

// callTo matches a call of name, or of a method or field path ending in
// "." + name.
func callTo(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		f, _ := callee(n)
		return f == name || strings.HasSuffix(f, "."+name)
	}
}

// goCall matches a go statement spawning fn.
func goCall(fn string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		return ok && types.ExprString(g.Call.Fun) == fn
	}
}

// methodOnCall matches x(…, …last).method(…): a word of the shm slot
// header read or written at its offset constant.
func methodOnCall(last, method string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		_, call := callee(n)
		if call == nil {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return false
		}
		inner, ok := sel.X.(*ast.CallExpr)
		return ok && len(inner.Args) > 0 && strings.HasSuffix(types.ExprString(inner.Args[len(inner.Args)-1]), last)
	}
}

// plainStoreTo matches a plain store of a shm segment word,
// shmPut32/shmPut64(seg, …last, v).
func plainStoreTo(last string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		f, call := callee(n)
		return (f == "shmPut32" || f == "shmPut64") && len(call.Args) == 3 &&
			strings.HasSuffix(types.ExprString(call.Args[1]), last)
	}
}

// assign matches an assignment with operator tok whose left side ends in
// lhs and whose right side is rhs.
func assign(tok token.Token, lhs, rhs string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		return ok && a.Tok == tok && len(a.Lhs) == 1 && len(a.Rhs) == 1 &&
			strings.HasSuffix(types.ExprString(a.Lhs[0]), lhs) && types.ExprString(a.Rhs[0]) == rhs
	}
}

// methodDecl matches a method of recv whose name starts with one of
// prefixes (or is one of them, with exact).
func methodDecl(recv string, exact bool, names ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*") != recv {
			return false
		}
		for _, name := range names {
			if fd.Name.Name == name || !exact && strings.HasPrefix(fd.Name.Name, name) {
				return true
			}
		}
		return false
	}
}

var structureCaps = []structureCap{
	// onecore: the dispatch sequence is written out in three places — the
	// core's begin/finish, the callAppend fast path and the
	// message-passing baseline — and admission entered from three — the
	// core, callAppend and the broker's per-tenant gate.
	{why: "a hand-copied dispatch path", max: 3, match: callTo("runHandler")},
	{why: "a hand-copied admission path", max: 3, match: callTo("adm.enter")},

	// Sampled metrics (DESIGN §5.9): the dispatch path stamps only with
	// monoNow, only on a sampled call, and three planes decide — the
	// core's begin, callAppend and the message-passing worker.
	{why: "a clock read other than monoNow on the dispatch path", files: []string{"lrpc.go", "fault.go"},
		within: []string{"callAppend", "begin", "finish", "runHandler"}, match: func(n ast.Node) bool {
			f, _ := callee(n)
			return f == "time.Now" || f == "time.Since"
		}},
	{why: "a fourth sampling decision", max: 3, match: callTo("sample")},

	// onecaller: capped-backoff doubling and the single-flight done
	// channel live in the rebind core and NetClient.getConn only, and
	// TransparentBinding picks a plane at bind time and nothing else.
	{why: "a supervisor loop pasted back", max: 2, match: assign(token.MUL_ASSIGN, "backoff", "2")},
	{why: "a supervisor loop pasted back", max: 2, match: assign(token.ASSIGN, "Done", "make(chan struct{})")},
	{why: "a TransparentBinding plane ladder", match: func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.NEQ || types.ExprString(b.Y) != "nil" {
			return false
		}
		x := types.ExprString(b.X)
		return x == "tb.local" || x == "tb.shm"
	}},
	{why: "a hand-written TransparentBinding call method", match: methodDecl("TransparentBinding", false, "Call", "NewBatch")},
	{why: "supervisor code in a shm transport file", files: []string{"shm.go", "shm_stub.go"}, match: func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && strings.Contains(id.Name, "Supervis")
	}},

	// onewire: one server loop parses requests and writes replies, one
	// capped frame reader serves it and every other frame reader, one
	// breaker gate, one spawn and one stall handoff, one write-deadline
	// site (connWriter.arm) — and on the client, one write to the wait
	// table (register), one completion (settle), no reply channel, and
	// one reader of reply frames (dispatch), which a leading caller and
	// the background reader share (DESIGN §5.19).
	{why: "a second server loop", max: 1, match: callTo("parseRequest")},
	{why: "a second server loop", max: 1, match: callTo("writeReply")},
	{why: "a second frame reader (readFrame and connLoop.next are the two)", max: 2, match: callTo("readLimitedFrame")},
	{why: "a hand-copied breaker gate", max: 1, match: callTo("br.allow")},
	{why: "a second spawn site in the server loop", max: 1, match: goCall("l.handle")},
	{why: "a second stall-watch handoff", max: 1, match: goCall("l.read")},
	{why: "a second ticker beside the one watch's", files: []string{"net.go"}, max: 1, in: []string{"tick"}, match: callTo("time.NewTicker")},
	{why: "a lock → deadline → write → clear sequence pasted back", files: []string{"net.go", "net_async.go"}, max: 1, match: callTo("SetWriteDeadline")},
	{why: "a second pending-call registration", files: []string{"net.go", "net_async.go"}, max: 1, in: []string{"register"}, match: func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok {
			return false
		}
		for _, l := range a.Lhs {
			if ix, ok := l.(*ast.IndexExpr); ok && types.ExprString(ix.X) == "c.wait" {
				return true
			}
		}
		return false
	}},
	{why: "a call finished outside settle", files: []string{"net.go", "net_async.go"}, max: 1, in: []string{"settle"}, match: callTo("complete")},
	{why: "a second client reply reader beside dispatch", files: []string{"net.go", "net_async.go"}, max: 1, in: []string{"dispatch"}, match: callTo("readFrame")},
	{why: "a second client reply reader beside dispatch", files: []string{"net.go", "net_async.go"}, max: 1, in: []string{"dispatch"}, match: callTo("bulkReply")},
	{why: "the per-call reply channel coming back", match: func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && id.Name == "netReply"
	}},

	// One failure record (DESIGN §5.17): a failed call crosses every wire
	// as the record appendFailure writes — from the TCP server loop's
	// failReply and the shm server's dispatch, nowhere else — classified
	// against the one sentinel table, wireSentinels, and never matched to
	// a sentinel by its text.
	{why: "a failure reply written beside failReply", files: []string{"net.go"}, max: 1, in: []string{"failReply"}, match: callTo("appendFailure")},
	{why: "a failure reply written beside the shm server's dispatch", files: []string{"shm.go"}, max: 1, in: []string{"dispatch"}, match: callTo("appendFailure")},
	{why: "a third failure-record writer", max: 2, match: callTo("appendFailure")},
	{why: "a sentinel matched by its text", match: func(n ast.Node) bool {
		f, call := callee(n)
		if f != "strings.HasPrefix" && f != "strings.TrimPrefix" && f != "strings.CutPrefix" {
			return false
		}
		return slices.ContainsFunc(call.Args, func(a ast.Expr) bool {
			return strings.Contains(types.ExprString(a), ".Error()")
		})
	}},
	{why: "a second sentinel table beside wireSentinels", max: 1, match: func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		return ok && cl.Type != nil && types.ExprString(cl.Type) == "[]error"
	}},

	// oneasync (DESIGN §5.13): a Future's completion token is sent by
	// complete alone, to a parked waiter, and the in-process batch reads
	// the Batch's one entry list instead of keeping a second one.
	{why: "a Future token sent outside complete", max: 1, in: []string{"complete"}, match: func(n ast.Node) bool {
		s, ok := n.(*ast.SendStmt)
		return ok && strings.HasSuffix(types.ExprString(s.Chan), ".ch") && types.ExprString(s.Value) == "struct{}{}"
	}},
	{why: "a second batch entry list in inprocBatch", match: func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "inprocBatch" {
			return false
		}
		st, ok := ts.Type.(*ast.StructType)
		return ok && slices.ContainsFunc(st.Fields.List, func(f *ast.Field) bool {
			at, ok := f.Type.(*ast.ArrayType)
			return ok && at.Len == nil
		})
	}},

	// oneslot: every shm call kind drives one slot lifecycle. A slot is
	// taken in one place (acquire: the reference and the one receive of
	// the free-slot wait token); the only other reference is the one a
	// batch waiter holds across its wait window (shmBatch.drive), whose
	// drain may retire the entry that held the mapping for it. A request
	// header is written in one place, a reply read in one, an async slot
	// claimed in two (retire, and unpostSlot for a submission the peer
	// never saw); the call entries are written
	// once, in shm_common.go, so shm_stub.go stubs the drivers and no
	// entry. The call path takes no lock (DESIGN §5.11): the reference
	// count, the slot stack and the segment's words are all it shares.
	{why: "a reference taken beside a slot's and a batch waiter's", max: 2, in: []string{"acquire", "drive"}, match: callTo("c.begin")},
	{why: "a second slot acquisition", max: 1, in: []string{"acquire"}, match: func(n ast.Node) bool {
		u, ok := n.(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW && types.ExprString(u.X) == "c.freeToken"
	}},
	{why: "a second request-header writer", max: 1, match: func(n ast.Node) bool {
		return methodOnCall("slotOffCallID", "Store")(n) || plainStoreTo("slotOffCallID")(n)
	}},
	{why: "a lock on the shm client's call path", files: []string{"shm.go", "shm_async.go"},
		within: []string{"begin", "end", "acquire", "prepare", "stage", "stageBulk", "header",
			"roundTrip", "awaitReply", "window", "drive", "handOver", "reply", "collectBulk", "recycle", "call", "post", "retire"},
		match: func(n ast.Node) bool {
			return callTo("Lock")(n) || callTo("Unlock")(n) || callTo("Wait")(n) || callTo("Broadcast")(n)
		}},
	{why: "a second reply reader", max: 1, match: methodOnCall("slotOffResLen", "Load")},
	{why: "a third async slot claim", max: 2, match: func(n ast.Node) bool {
		f, call := callee(n)
		return call != nil && strings.HasSuffix(f, "futs[id].Swap") && len(call.Args) == 1 && types.ExprString(call.Args[0]) == "nil"
	}},
	{why: "a shm call entry in the stub", files: []string{"shm_stub.go"}, match: methodDecl("ShmClient", true,
		"Call", "CallAppend", "CallContext", "CallChain", "CallChainContext", "CallBulk", "CallAsync", "CallChainAsync")},

	// The shm wait policy (DESIGN §5.11, "Control transfer"): whether a
	// wait probes with loads is decided once, by shmring from the CPU
	// count, and the probe loop is written once there; the root package
	// probes only in the one wait window that a sync caller's reply wait
	// and a batch waiter share. A parked waiter keeps
	// no timer: close and peer death wake it, so every PopWait waits 0.
	{why: "a second CPU-count decision beside shmring's", match: callTo("runtime.NumCPU")},
	{why: "a second probe of a shm wait", max: 1, in: []string{"window"}, match: callTo("shmring.Probe")},
	{why: "a parked shm waiter that re-arms on a timer instead of being woken", match: func(n ast.Node) bool {
		_, call := callee(n)
		return callTo("PopWait")(n) && (len(call.Args) != 3 || types.ExprString(call.Args[1]) != "0")
	}},

	// The TCP read probe (DESIGN §5.20): the socket is read raw in one
	// place, the probing reader under both of the TCP plane's buffered
	// readers, and its budget reads shmring's CPU decision (above).
	{why: "a second raw socket read beside the probing reader", max: 1, in: []string{"readNow"}, match: callTo("syscall.Read")},

	// The name service (DESIGN §5.12): the replicated registry is package
	// lrpc/registry, a client of this one that serves through NetServer.
	// Accepted connections are tracked for severing by ServeNetServer and
	// Broker.Serve alone, and the only registry name declared here is the
	// Registry interface the supervisors and announcers read.
	{why: "a third serve-and-sever path beside ServeNetServer and Broker.Serve", max: 2, match: callTo("newTrackedListener")},
	{why: "registry code back in the root package", match: func(n ast.Node) bool {
		var name string
		switch d := n.(type) {
		case *ast.TypeSpec:
			if _, ok := d.Type.(*ast.InterfaceType); ok && d.Name.Name == "Registry" {
				return false
			}
			name = d.Name.Name
		case *ast.FuncDecl:
			if d.Recv != nil {
				return false
			}
			name = d.Name.Name
		default:
			return false
		}
		// "Registry" or "Replica" as a word of the name: RegistryClient,
		// NewReplicaStore and StartRegistryReplica, not ReplicatedOpts.
		for _, word := range []string{"Registry", "Replica"} {
			for rest := name; ; {
				i := strings.Index(rest, word)
				if i < 0 {
					break
				}
				rest = rest[i+len(word):]
				if rest == "" || unicode.IsUpper(rune(rest[0])) {
					return true
				}
			}
		}
		return false
	}},
}

// TestStructureCaps holds the root package to its structure caps.
func TestStructureCaps(t *testing.T) {
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*ast.File{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if files[name], err = parser.ParseFile(fset, name, src, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range structureCaps {
		scope := c.files
		if scope == nil {
			scope = names
		}
		var sites []string
		for _, name := range scope {
			f := files[name]
			if f == nil {
				continue
			}
			for _, d := range f.Decls {
				fn := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				if c.within != nil && !slices.Contains(c.within, fn) {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if n != nil && c.match(n) {
						site := fset.Position(n.Pos()).String()
						if c.in != nil && !slices.Contains(c.in, fn) {
							t.Errorf("%s: in %s, want only in %s (%s)", site, fn, strings.Join(c.in, " or "), c.why)
						}
						sites = append(sites, site)
					}
					return true
				})
			}
		}
		switch {
		case len(sites) > c.max:
			t.Errorf("%d sites, want at most %d — %s:\n\t%s", len(sites), c.max, c.why, strings.Join(sites, "\n\t"))
		case len(sites) == 0 && c.max > 0:
			// The guarded path itself must be found, or a matcher that
			// drifted from the code would pass vacuously.
			t.Errorf("no site of the path guarded against %s", c.why)
		}
		t.Logf("%d/%d sites — %s", len(sites), c.max, c.why)
	}
}
