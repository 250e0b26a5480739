// Command xmworker serves one execution target over TCP for distributed
// campaigns: a coordinator running with -target remote:<addr>[,<addr>...]
// fans its leases across a fleet of xmworker processes, and the merged
// campaign log stays byte-identical to the same campaign executed
// in-process (a lease the client retries on another worker after a
// death re-executes byte-identically, and duplicates dedupe by seq).
//
// Usage:
//
//	xmworker [-listen ADDR] [-target SPEC] [-workers N] [-seed N]
//	         [-inject-rate R] [-inject-sites LIST]
//	         [-exit-after N] [-ops ADDR]
//
// The worker prints "xmworker: listening on <addr> target=<spec>" once
// the listener is up — with -listen :0 that line is how a launcher
// learns the bound port. -exit-after makes the process exit without
// responding once N tests have executed: a deterministic mid-lease
// worker death. make remote-smoke uses it to test the client's retry
// onto a surviving worker, and a whole-fleet outage that stops the
// campaign until workers are back on the same addresses for -resume.
//
// -ops serves the worker's observability endpoints (/metrics, /healthz,
// /progress, /debug/pprof) on a second address. On SIGINT or SIGTERM
// the worker drains instead of dying: it stops accepting, lets in-flight
// leases finish and answer, then exits 0 — clients lose the connection
// only between leases and retry nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xmrobust/internal/inject"
	"xmrobust/internal/obs"
	"xmrobust/internal/remote"
	"xmrobust/internal/target"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "address to listen on (:0 picks a free port)")
		tgt       = flag.String("target", "", "execution target to serve: sim (default), phantom, diff:a,b, inject:base")
		workers   = flag.Int("workers", 1, "concurrent lease executions")
		seed      = flag.Int64("seed", 0, "seed anchoring inject:* schedules (match the coordinator's -seed)")
		injRate   = flag.Float64("inject-rate", 1, "inject:* targets: fraction of tests carrying an SEU, in (0,1]")
		injSites  = flag.String("inject-sites", "", "inject:* targets: comma-separated flip sites (default all)")
		exitAfter = flag.Int("exit-after", 0, "exit without responding after N tests (worker-death testing)")
		quiet     = flag.Bool("quiet", false, "suppress per-connection logging")
		opsAddr   = flag.String("ops", "", "serve /metrics, /healthz, /progress and /debug/pprof on this address")
	)
	flag.Parse()

	if strings.HasPrefix(*tgt, remote.Name+":") || *tgt == remote.Name {
		fmt.Fprintln(os.Stderr, "xmworker: refusing to serve a remote target (a worker fleet must bottom out on local execution)")
		os.Exit(2)
	}
	params := inject.Params{Rate: *injRate, Seed: *seed}
	if *injSites != "" {
		for _, s := range strings.Split(*injSites, ",") {
			if s = strings.TrimSpace(s); s != "" {
				params.Sites = append(params.Sites, s)
			}
		}
	}
	var (
		o   *obs.Obs
		ops *obs.OpsServer
	)
	if *opsAddr != "" {
		o = obs.New()
		var err error
		ops, err = obs.ListenAndServe(*opsAddr, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmworker: %v\n", err)
			os.Exit(1)
		}
		defer ops.Close()
		fmt.Printf("xmworker: ops on http://%s/metrics\n", ops.Addr())
	}
	backend, err := target.New(*tgt, target.Config{Inject: params, Obs: o})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmworker: %v\n", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmworker: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("xmworker: listening on %s target=%s\n", ln.Addr(), backend.Name())

	srv := &remote.Server{
		Target:    backend,
		Workers:   *workers,
		ExitAfter: *exitAfter,
		Obs:       o,
		OnExit: func() {
			fmt.Printf("xmworker: exit-after %d tests reached, dying mid-lease\n", *exitAfter)
			os.Exit(0)
		},
	}
	if !*quiet {
		srv.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "xmworker: "+format+"\n", args...)
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmworker: %v\n", err)
			os.Exit(1)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "xmworker: %v — draining in-flight leases\n", sig)
		srv.Shutdown()
		// Drain the ops server too: a scrape caught mid-response finishes
		// instead of seeing a reset connection (nil-safe when -ops is off).
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		ops.Shutdown(sctx)
		cancel()
		fmt.Fprintln(os.Stderr, "xmworker: drained, exiting")
	}
}
