// Command xmrobustd is the campaign service: a long-running daemon that
// accepts robustness-campaign submissions over HTTP, executes them on a
// bounded executor over the shared machine pool, and streams per-test
// records live over Server-Sent Events.
//
// API (JSON everywhere; see internal/serve):
//
//	POST   /v1/campaigns             submit {plan, target, seed, ...}
//	GET    /v1/campaigns             list campaigns
//	GET    /v1/campaigns/{id}        one campaign's status
//	DELETE /v1/campaigns/{id}        cancel (queued or running)
//	GET    /v1/campaigns/{id}/events live SSE stream (status/record/progress/end)
//	GET    /v1/campaigns/{id}/log    merged JSON Lines campaign log
//
// The ops surface (/metrics, /healthz, /progress, /debug/pprof) is
// mounted on the same address. Campaign directories (shards +
// checkpoint) live under -data, one per campaign; a campaign cancelled
// mid-run leaves a checkpoint there, and `xmfuzz -stream <dir> -resume`
// replays the remainder to a byte-identical merged log.
//
// On SIGINT or SIGTERM the daemon drains: submissions get 503, queued
// and running campaigns are cancelled (flushing their shards),
// SSE subscribers receive the final status and end events, and the
// HTTP server finishes in-flight requests before the process exits 0.
//
// Usage:
//
//	xmrobustd [-listen ADDR] [-data DIR] [-max-active N] [-max-per-client N]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xmrobust/internal/obs"
	"xmrobust/internal/serve"

	// Register the remote backend so submissions can target xmworker
	// fleets ("remote:<addr>,...") like any CLI campaign.
	_ "xmrobust/internal/remote"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:8433", "address to serve the campaign API on (:0 picks a free port)")
		dataDir   = flag.String("data", "", "campaign data directory (shards + checkpoints; required)")
		maxActive = flag.Int("max-active", 1, "campaigns executing concurrently")
		maxClient = flag.Int("max-per-client", 4, "live (queued+running) campaigns per client before 429")
		quiet     = flag.Bool("quiet", false, "suppress per-campaign logging")
	)
	flag.Parse()

	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "xmrobustd: -data DIR is required")
		os.Exit(2)
	}
	cfg := serve.Config{
		DataDir:      *dataDir,
		MaxActive:    *maxActive,
		MaxPerClient: *maxClient,
		Obs:          obs.New(),
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "xmrobustd: "+format+"\n", args...)
		}
	}
	svc, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmrobustd: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmrobustd: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: obs.ReadHeaderTimeout,
		IdleTimeout:       obs.IdleTimeout,
	}
	// The launcher-facing readiness line (with -listen :0 it is how a
	// harness learns the bound port), mirroring xmworker.
	fmt.Printf("xmrobustd: listening on %s data=%s\n", ln.Addr(), *dataDir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "xmrobustd: %v\n", err)
			os.Exit(1)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "xmrobustd: %v — draining\n", sig)
		// Campaigns first (they cancel and flush their shards, and their
		// SSE streams end), then the HTTP server's in-flight requests.
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := svc.Shutdown(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "xmrobustd: drain: %v\n", err)
		}
		if err := srv.Shutdown(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "xmrobustd: shutdown: %v\n", err)
		}
		cancel()
		fmt.Fprintln(os.Stderr, "xmrobustd: drained, exiting")
	}
}
