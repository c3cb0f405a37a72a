// Command lrpcbroker runs the multi-tenant broker daemon: it owns
// exports on behalf of backend server processes and admits tenant
// client domains over TCP, applying centralized policy — per-tenant
// rate limits, concurrency bulkheads, token auth, and suspension —
// before any frame reaches a backend. The paper's kernel-mediated
// domain model as a deployable process: the broker is the trusted
// third party between mutually distrusting client and server domains.
//
//	lrpcbroker -listen :7411 -upstream bench.echo=127.0.0.1:7400
//	lrpcbroker -listen :7411 -registry r1:7300,r2:7300 \
//	    -upstream bench.echo=127.0.0.1:7400 -announce-ttl 2s
//	lrpcbroker -listen :7411 -policy-file policy.json ...
//
// With -registry the broker announces itself (tenants resolve it by
// name and reattach across restarts), loads the stored policy document
// at startup, and polls it for live updates — `PushBrokerPolicy` /
// `lrpcbroker`-external writes apply without a restart. With
// -policy-file the initial policy comes from disk; the two compose
// (highest version wins, registry updates still apply live).
//
// Observability: `lrpcstat tenants ADDR` renders the per-tenant table
// over the same control port; -metrics serves the Prometheus text
// exposition over HTTP.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lrpc"
	"lrpc/registry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address the broker accepts tenants on")
	replicas := flag.String("registry", "", "comma-separated registry replica addresses (enables announce + stored policy)")
	name := flag.String("name", lrpc.DefaultBrokerName, "registry name the broker announces under")
	policyName := flag.String("policy-name", "", "registry name of the policy document (default NAME.policy)")
	policyFile := flag.String("policy-file", "", "initial policy document (JSON BrokerPolicy)")
	announceTTL := flag.Duration("announce-ttl", 2*time.Second, "registration lease TTL")
	poll := flag.Duration("poll", 2*time.Second, "stored-policy poll interval (0 disables)")
	metrics := flag.String("metrics", "", "serve the Prometheus text exposition on this HTTP address")
	var upstreams upstreamFlags
	flag.Var(&upstreams, "upstream", "service=addr backend mapping (repeatable)")
	flag.Parse()

	if len(upstreams) == 0 {
		fmt.Fprintln(os.Stderr, "lrpcbroker: at least one -upstream service=addr is required")
		os.Exit(2)
	}

	pollOpt := *poll
	if pollOpt == 0 {
		pollOpt = -1 // BrokerOptions: negative disables, zero selects default
	}
	bk := lrpc.NewBroker(lrpc.BrokerOptions{
		Name:       *name,
		PolicyName: *policyName,
		PolicyPoll: pollOpt,
		Upstream: func(service string) (lrpc.BrokerUpstream, error) {
			addr, ok := upstreams.lookup(service)
			if !ok {
				return nil, fmt.Errorf("no -upstream mapping for service %q", service)
			}
			return lrpc.NewReconnectingClient(service, lrpc.DialOptions{
				Dial: func() (net.Conn, error) {
					return net.DialTimeout("tcp", addr, 2*time.Second)
				},
				CallTimeout:    10 * time.Second,
				RedialAttempts: 3,
			})
		},
	})

	if *policyFile != "" {
		blob, err := os.ReadFile(*policyFile)
		if err != nil {
			fatal(err)
		}
		var p lrpc.BrokerPolicy
		if err := json.Unmarshal(blob, &p); err != nil {
			fatal(fmt.Errorf("%s: %w", *policyFile, err))
		}
		if err := bk.SetPolicy(&p); err != nil {
			fatal(err)
		}
	}

	addr, err := bk.Start(*listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("lrpcbroker: listening on %s (generation %d)\n", addr, bk.Generation())

	if *replicas != "" {
		rc := registry.NewClient(strings.Split(*replicas, ","), registry.ClientOpts{})
		defer rc.Close()
		if _, err := bk.Announce(rc, *announceTTL, addr); err != nil {
			fatal(fmt.Errorf("announce: %w", err))
		}
		fmt.Printf("lrpcbroker: announced as %q (ttl %s, policy %q)\n",
			*name, *announceTTL, *policyName)
	}

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			bk.WriteMetricsText(w)
		})
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintf(os.Stderr, "lrpcbroker: metrics: %v\n", err)
			}
		}()
		fmt.Printf("lrpcbroker: metrics on http://%s/metrics\n", *metrics)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("lrpcbroker: shutting down")
	if err := bk.Close(); err != nil {
		fatal(err)
	}
}

// upstreamFlags collects repeated -upstream service=addr mappings.
type upstreamFlags []string

func (f *upstreamFlags) String() string { return strings.Join(*f, ",") }

func (f *upstreamFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want service=addr, got %q", v)
	}
	*f = append(*f, v)
	return nil
}

func (f upstreamFlags) lookup(service string) (string, bool) {
	for _, m := range f {
		s, addr, _ := strings.Cut(m, "=")
		if s == service {
			return addr, true
		}
	}
	return "", false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lrpcbroker:", err)
	os.Exit(1)
}
