// Command xmfuzz runs the robustness testing campaign of the paper's case
// study: the data-type fault model applied to the XtratuM-like separation
// kernel on the EagleEye TSP testbed. It reproduces Table III, the CRASH
// tally, Fig. 8 and the §IV.C issue list, and is a thin shell over the
// public pkg/xmrobust API.
//
// Every campaign streams through the pooled engine, its analysis folded
// in as results land. By default the execution logs stay in memory. With
// -stream DIR they are sharded into JSON Lines files under DIR, one per
// running worker, and DIR/checkpoint.jsonl records the campaign's
// identity; -resume continues an interrupted campaign, skipping every
// test whose record is complete in the shards. The report is the same
// either way, and identical to an uninterrupted run's.
//
// xmfuzz exits 0 when the campaign executed cleanly (robustness findings
// are its product, not an error), 1 on campaign/harness errors, 2 on
// usage errors.
//
// The campaign's test plan (-plan) and execution target (-target) are
// both selectable; -list prints every plan and every registered
// backend. -plan phantom runs the §V phantom-parameter extension (every
// parameter-less hypercall under every phantom system state) through the
// same engine as any other plan. -target diff:sim,phantom executes each
// test on the simulated kernel AND the analytical model, recording their
// disagreements as the divergence section of the report — behaviour the
// reference manual does not predict.
//
// -target inject:sim runs the SEU fault-injection campaign: every test
// executes once clean and once under a scheduled bit flip
// (-inject-rate/-inject-sites tune the schedule), and the report gains a
// per-site masking-rate section classifying each upset as masked,
// wrong-result, hm-detected, crash or hang.
//
// A checkpointed campaign records its plan fingerprint, target name and
// injection-schedule signature; -resume refuses a mismatch of any of
// them instead of mixing two campaigns into one log.
//
// Usage:
//
//	xmfuzz [-patched] [-mafs N] [-workers N] [-stress] [-func NAME]
//	       [-plan STRATEGY] [-target BACKEND] [-seed N] [-corpus FILE]
//	       [-inject-rate R] [-inject-sites LIST]
//	       [-cover-stats] [-csv] [-issues] [-progress] [-list]
//	       [-stream DIR] [-resume]
//	       [-ops ADDR]
//
// -progress renders a live stderr line (done/total, tests/sec, ETA) from
// the campaign's observability snapshot; -ops serves the same snapshot —
// plus the full metrics registry and pprof — over HTTP for the duration
// of the run (/metrics, /healthz, /progress, /debug/pprof). Both are off
// by default and cost the engine one nil check per event when off.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xmrobust/pkg/xmrobust"
)

func main() {
	var (
		patched  = flag.Bool("patched", false, "test the patched kernel (post fault-removal)")
		mafs     = flag.Int("mafs", 0, "major frames per test (0 = default)")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		stress   = flag.Bool("stress", false, "pre-load the system before injection")
		fn       = flag.String("func", "", "restrict the campaign to one hypercall")
		csv      = flag.Bool("csv", false, "emit Table III as CSV")
		issues   = flag.Bool("issues", false, "emit only the issue list")
		progress = flag.Bool("progress", false, "print progress while running")
		masking  = flag.Bool("masking", false, "append the fault-masking study (paper Fig. 7)")
		output   = flag.String("o", "", "write the raw campaign log (JSON Lines) to this file")
		stream   = flag.String("stream", "", "run the streaming engine, sharding the campaign log into this directory")
		resume   = flag.Bool("resume", false, "resume an interrupted -stream campaign from its checkpoint")
		batch    = flag.Int("batch", 0, "tests leased per worker slot on batching targets, amortising the slot round-trip and the remote: frame (0 = one test per lease; identical results)")
		plan     = flag.String("plan", "", "test plan: exhaustive (default), pairwise, rand:N, boundary, feedback:N, phantom (see -list)")
		tgt      = flag.String("target", "", "execution target: sim (default), phantom, diff:a,b (see -list)")
		seed     = flag.Int64("seed", 0, "seed for randomised plans (rand:N, feedback:N)")
		corpus   = flag.String("corpus", "", "feedback-plan corpus file (JSON Lines): load parents, append admissions")
		coverCol = flag.Bool("cover-stats", false, "collect kernel edge coverage and report it (feedback plans always do)")
		injRate  = flag.Float64("inject-rate", 1, "inject:* targets: fraction of tests carrying an SEU, in (0,1]")
		injSites = flag.String("inject-sites", "", "inject:* targets: comma-separated flip sites (default all: clock,iu,mmu,ram,timer)")
		opsAddr  = flag.String("ops", "", "serve /metrics, /healthz, /progress and /debug/pprof on this address while the campaign runs")
		list     = flag.Bool("list", false, "list the test plans and execution targets, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("test plans (-plan):")
		for _, p := range xmrobust.Plans() {
			fmt.Printf("  %-12s %s\n", p.Name, p.Desc)
		}
		fmt.Println("\nexecution targets (-target):")
		for _, t := range xmrobust.Targets() {
			fmt.Printf("  %-12s %s\n", t.Name, t.Desc)
		}
		return
	}

	if *resume && *stream == "" {
		fmt.Fprintln(os.Stderr, "xmfuzz: -resume requires -stream")
		os.Exit(2)
	}
	if *masking && *stream != "" {
		// The masking study classifies every execution log again, so
		// the logs must stay in memory.
		fmt.Fprintln(os.Stderr, "xmfuzz: -masking needs the execution logs in memory (drop -stream)")
		os.Exit(2)
	}

	opts := []xmrobust.Option{
		xmrobust.WithPlan(*plan),
		xmrobust.WithTarget(*tgt),
		xmrobust.WithSeed(*seed),
		xmrobust.WithMAFs(*mafs),
		xmrobust.WithWorkers(*workers),
	}
	if *stress {
		opts = append(opts, xmrobust.WithStress())
	}
	if *patched {
		opts = append(opts, xmrobust.WithPatchedKernel())
	}
	if *fn != "" {
		opts = append(opts, xmrobust.WithFunction(*fn))
	}
	if *corpus != "" {
		opts = append(opts, xmrobust.WithCorpus(*corpus))
	}
	if *injRate != 1 || *injSites != "" {
		var sites []string
		for _, s := range strings.Split(*injSites, ",") {
			if s = strings.TrimSpace(s); s != "" {
				sites = append(sites, s)
			}
		}
		opts = append(opts, xmrobust.WithInjection(*injRate, sites...))
	}
	if *coverCol {
		opts = append(opts, xmrobust.WithCoverage())
	}
	// First SIGINT/SIGTERM cancels the campaign cooperatively: workers
	// finish the tests in hand and shards flush, so with -stream,
	// -resume replays the rest to a byte-identical merged log. A second signal kills the process (stop
	// restores default handling).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opts = append(opts, xmrobust.WithContext(ctx))

	var o *xmrobust.Obs
	if *progress || *opsAddr != "" {
		o = xmrobust.NewObs()
		opts = append(opts, xmrobust.WithObs(o))
	}
	var ops *xmrobust.OpsServer
	if *opsAddr != "" {
		var err error
		ops, err = xmrobust.ServeOps(*opsAddr, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xmfuzz:", err)
			os.Exit(1)
		}
		defer ops.Close()
		fmt.Fprintf(os.Stderr, "xmfuzz: ops on http://%s/metrics\n", ops.Addr())
	}
	var stopProgress func()
	if *progress {
		stopProgress = progressLine(o)
	}
	if *stream != "" {
		opts = append(opts, xmrobust.WithCheckpoint(*stream))
		if *resume {
			opts = append(opts, xmrobust.WithResume())
		}
	}
	if *batch != 0 {
		opts = append(opts, xmrobust.WithBatchSize(*batch))
	}

	rep, err := xmrobust.Run(opts...)
	if stopProgress != nil {
		stopProgress()
	}
	if ctx.Err() != nil {
		stopSignals()
		drainOps(ops)
		fmt.Fprintln(os.Stderr, "xmfuzz: interrupted — campaign cancelled")
		if *stream != "" {
			fmt.Fprintf(os.Stderr, "xmfuzz: checkpoint written; continue with -stream %s -resume\n", *stream)
		}
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmfuzz:", err)
		os.Exit(1)
	}

	if *output != "" {
		if err := writeLog(rep, *output); err != nil {
			fmt.Fprintln(os.Stderr, "xmfuzz:", err)
			os.Exit(1)
		}
	}

	switch {
	case *csv:
		fmt.Print(rep.TableCSV())
	case *issues:
		fmt.Print(rep.IssuesText())
	default:
		fmt.Print(rep.Summary())
	}
	if *masking {
		study, err := rep.MaskingText()
		if err != nil {
			fmt.Fprintln(os.Stderr, "xmfuzz:", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(study)
	}
	if n := rep.HarnessErrors(); n > 0 {
		fmt.Fprintf(os.Stderr, "xmfuzz: %d tests failed in the harness\n", n)
		os.Exit(1)
	}
}

// drainOps shuts the -ops server down gracefully on the signal path:
// in-flight scrapes finish (bounded) instead of seeing a reset
// connection. Nil-safe, like the server's own methods.
func drainOps(ops *xmrobust.OpsServer) {
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	ops.Shutdown(sctx)
}

// progressLine renders the live -progress stderr line from the
// campaign's observability snapshot, twice a second. The returned stop
// function prints the final state and terminates the line.
func progressLine(o *xmrobust.Obs) func() {
	render := func() {
		s := o.Progress.Snapshot()
		if s.Total == 0 {
			return
		}
		eta := "--"
		if s.ETASec > 0 {
			eta = time.Duration(s.ETASec * float64(time.Second)).Truncate(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "\r%6d / %d tests  %6.0f t/s  ETA %-10s", s.Done, s.Total, s.TestsPerSec, eta)
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				render()
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
		render()
		fmt.Fprintln(os.Stderr)
	}
}

// writeLog writes the merged raw campaign log to path.
func writeLog(rep *xmrobust.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, err := rep.WriteLog(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(os.Stderr, "campaign log: %s (%d records)\n", path, n)
	}
	return err
}
