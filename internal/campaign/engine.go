package campaign

// This file is the streaming pooled execution engine. Each worker
// goroutine takes its next lease straight from the coordinator, executes
// it on any registered target backend (the sim target recycles simulated
// machines, and the kernels parked on them, through a reset-and-verify
// pool), and encodes and writes every execution log to its own JSON
// Lines shard. It then hands the result to the single collector. The
// shards are the campaign's progress record: a resume skips every test
// whose record is complete there, so an interrupted campaign resumes
// from where it stopped. RunDatasets is the collect-to-slice step that
// points the stream at an in-memory slice.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"xmrobust/internal/cover"
	"xmrobust/internal/obs"
	"xmrobust/internal/sparc"
	"xmrobust/internal/store"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// EngineOptions configures the streaming engine on top of the campaign
// Options.
type EngineOptions struct {
	Options

	// Ctx, when non-nil, arms cooperative cancellation: once it is done
	// the coordinator stops issuing leases, a lease already taken is
	// skipped, in-flight tests finish (or, on a target the engine built,
	// the rest of a lease is abandoned), and shards flush with every
	// completed test's record, so the cancelled campaign resumes exactly
	// like an interrupted one. StreamPlan then returns Ctx's error
	// (errors.Is(err, context.Canceled) distinguishes a cancel from a
	// failure). A result the target returns Aborted was not executed,
	// whatever the cause, and is never logged; when nobody cancelled,
	// it stops the campaign the same way and StreamPlan returns the
	// target's error. Nil: nothing cancels, but an abort still stops.
	Ctx context.Context

	// PoolStrict makes the machine pool scan every byte of every recycled
	// machine (sparc.SnapshotPool strict mode). Slow; for isolation tests.
	PoolStrict bool

	// ShardDir, when set, streams every execution log into JSON Lines
	// shard files <ShardDir>/shard-NNN.jsonl, one per running worker:
	// min(Workers, pending tests) of them, worker w writing shard w.
	// Shards are opened in append mode so a resumed campaign extends
	// them; MergeShards restores campaign order.
	ShardDir string

	// BatchSize leases contiguous runs of pending tests to each worker
	// when the target can execute them in one held slot (the
	// target.BatchExecutor capability). Every test recycles the kernel
	// parked on its machine whatever the lease size; a larger lease only
	// amortises the slot's pool round-trip and, on remote: targets, the
	// request frame. Results are byte-identical to unbatched execution —
	// the capability's contract. 0 or 1, targets without the capability,
	// and feedback-driven plans (whose At blocks on earlier positions'
	// coverage) lease one test per slot acquisition.
	BatchSize int

	// TargetInstance, when non-nil, is the execution backend itself,
	// bypassing the Options.Target registry lookup. A caller that runs
	// several campaigns against one target (the bench harness, embedders
	// with a prepared backend) keeps its warm state — the machine pool
	// and the kernels parked on its machines — across StreamPlan calls
	// instead of rebuilding it each time; Provision is idempotent on the
	// shared instance.
	TargetInstance target.Target

	// CheckpointPath, when set, makes the campaign resumable: a fresh run
	// writes the campaign's identity there as one header line and flushes
	// every shard record as it is written.
	CheckpointPath string

	// Resume continues the campaign at CheckpointPath when its header
	// matches, skipping every test with a complete (newline-terminated)
	// shard record. Without a checkpoint the run starts fresh.
	Resume bool

	// Store is the persistence seam checkpoint, shard and merge I/O flow
	// through (nil: the local filesystem, the historical behaviour).
	// Pointing it elsewhere is what lets a campaign's shards live off
	// the local disk — resume and merge never touch *os.File directly.
	Store store.Store

	// Limit stops dispatching after that many tests this call (0: run
	// everything). Combined with a checkpoint it gives budgeted runs the
	// same semantics as an interruption: the next Resume continues from
	// the last completed dataset.
	Limit int

	// Obs, when non-nil, threads the observability spine through the run:
	// engine/lease/pool/target metrics land in Obs.Reg, progress in
	// Obs.Progress, and campaign/lease trace events in Obs.Trace (when
	// Trace is nil and a ShardDir is set, the engine writes
	// <ShardDir>/trace.jsonl through the campaign's store). Nil — the
	// default — costs the hot path one nil check per event, pinned by
	// BenchmarkObsOverhead.
	Obs *obs.Obs
}

// MaxMAFs and MaxWorkers bound the two counts whose cost grows with
// them and nothing else. A test runs, and logs a return code for, every
// major frame: at MaxMAFs a simulated test takes about 2 ms and logs
// about 21 KB. Each running worker holds a shard file open, and on a
// remote: target a connection: MaxWorkers keeps both well inside the
// common limit of 1024 open files.
const (
	MaxMAFs    = 1000
	MaxWorkers = 256
)

// Validate refuses a count out of range: MAFs, Workers, BatchSize or
// Limit below zero, where the engine would otherwise run the default as
// if the field were unset, and MAFs or Workers above MaxMAFs or
// MaxWorkers. The error names the field and the bound. Zero keeps
// selecting each one's default. Entry points call it before they build
// anything: the pkg/xmrobust facade (and so xmfuzz) and the daemon's
// Submit.
func (eo EngineOptions) Validate() error {
	for _, f := range [...]struct {
		name   string
		n, max int
	}{{"mafs", eo.MAFs, MaxMAFs}, {"workers", eo.Workers, MaxWorkers}, {"batch", eo.BatchSize, math.MaxInt}, {"limit", eo.Limit, math.MaxInt}} {
		switch {
		case f.n < 0:
			return fmt.Errorf("campaign: %s %d is negative (0 selects the default)", f.name, f.n)
		case f.n > f.max:
			return fmt.Errorf("campaign: %s %d exceeds the maximum of %d", f.name, f.n, f.max)
		}
	}
	return nil
}

// EngineStats reports what one Stream call did.
type EngineStats struct {
	// Total is the campaign size; Executed ran this call; Skipped were
	// resumed: their shard records were already complete.
	Total    int
	Executed int
	Skipped  int
	// Pool holds the machine-pool counters (zero on targets that do not
	// pool).
	Pool sparc.PoolStats
}

// posResult pairs an execution log with its campaign position.
type posResult struct {
	pos int
	res Result
}

// Source is the dataset stream the engine executes: a deterministic,
// index-addressable sequence. testgen.Plan satisfies it directly, so a
// campaign streams straight out of a lazy plan without materialising the
// suite; DatasetSlice adapts pre-built lists. At must be safe for
// concurrent use — the worker pool calls it from several goroutines.
type Source interface {
	Len() int
	At(i int) testgen.Dataset
	// Fingerprint identifies the stream's content; checkpoints record it
	// and refuse to resume a different one.
	Fingerprint() string
}

// FeedbackSource is a dataset source driven by execution results: the
// engine forwards every completed test's kernel coverage map back into
// it, closing the loop the coverage-guided feedback plan schedules on.
// The corpus.FeedbackPlan satisfies it; its At blocks until the
// coverage of all earlier positions has been delivered, so the mutation
// region of a feedback campaign executes serially by construction.
type FeedbackSource interface {
	Source
	// Feedback delivers the coverage of the test at pos (nil when the
	// run produced none, e.g. a harness error).
	Feedback(pos int, cov *cover.Map)
}

// DatasetSlice adapts a pre-built dataset list to the Source interface.
type DatasetSlice []testgen.Dataset

// Len returns the dataset count.
func (s DatasetSlice) Len() int { return len(s) }

// At returns dataset i.
func (s DatasetSlice) At(i int) testgen.Dataset { return s[i] }

// Fingerprint hashes the rendered datasets.
func (s DatasetSlice) Fingerprint() string {
	h := sha256.New()
	for _, ds := range s {
		io.WriteString(h, ds.String())
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("slice:%d/%s", len(s), hex.EncodeToString(h.Sum(nil))[:16])
}

// sourcePlan names the generation strategy behind a source ("slice" when
// the source is not a plan).
func sourcePlan(src Source) string {
	if p, ok := src.(interface{ Strategy() string }); ok {
		return p.Strategy()
	}
	return "slice"
}

// Stream executes a pre-built dataset list through the engine — the slice
// adapter over StreamPlan.
func Stream(datasets []testgen.Dataset, eo EngineOptions, sink func(pos int, r Result)) (EngineStats, error) {
	return StreamPlan(DatasetSlice(datasets), eo, sink)
}

// StreamPlan executes a dataset source through the engine. A campaign
// runs min(Workers, pending tests) worker goroutines, one closer and the
// collector. A worker runs each of its tests start to finish: it takes a
// lease from the coordinator, executes it, writes every record to its
// own shard, and hands the result to the collector. The collector feeds
// coverage back and hands each completed test to sink (when non-nil),
// tagged with its position in the source, so the sink always runs on one
// goroutine, after the test's shard write. Neither the suite nor the
// results are retained in memory, so a campaign's footprint no longer
// grows with its test count. Results arrive in completion order, not
// campaign order. Note that on a resumed run the sink only sees the
// tests executed by this call — the skipped tests' logs live in the
// shard files (ScanShards reads them back).
func StreamPlan(src Source, eo EngineOptions, sink func(pos int, r Result)) (EngineStats, error) {
	opts := eo.Options.withDefaults()
	fb, _ := src.(FeedbackSource)
	if fb != nil {
		// A feedback source schedules on coverage; collection is not
		// optional for it.
		opts.Coverage = true
	}
	total := src.Len()
	stats := EngineStats{Total: total}
	// ctx is the campaign's own stop signal: the caller's cancel, or an
	// Aborted result nobody cancelled (stop records the target's error
	// as the cause).
	parent := eo.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, stop := context.WithCancelCause(parent)
	defer stop(nil)
	var err error
	tgt := eo.TargetInstance
	if tgt == nil {
		// Feedback sources keep a context-free target: a stop lets their
		// in-flight tests finish and be recorded rather than abandoning
		// them.
		tgtCtx := ctx
		if fb != nil {
			tgtCtx = nil
		}
		tgt, err = target.New(opts.Target, target.Config{
			PoolStrict: eo.PoolStrict,
			Inject:     opts.injectParams(),
			Obs:        eo.Obs,
			Ctx:        tgtCtx,
		})
		if err != nil {
			return stats, err
		}
		// A target built here is this campaign's to close (the remote
		// backend's worker connections); a TargetInstance stays its
		// caller's.
		if c, ok := tgt.(io.Closer); ok {
			defer c.Close()
		}
	}
	if eo.Resume && eo.ShardDir == "" {
		// The shards are what a resume skips by; without them the skipped
		// tests' results would exist nowhere and the resumed run would
		// silently lose them.
		return stats, errors.New("campaign: resuming requires a shard directory")
	}
	st := eo.Store
	if st == nil {
		st = store.Local()
	}

	// A run resumes only when it read a checkpoint header that matched;
	// every other run is fresh.
	var hdr ckptHeader
	resumed := false
	if eo.CheckpointPath != "" {
		hdr = ckptHeader{
			Campaign:    optionsSignature(total, opts),
			Target:      tgt.Name(),
			Plan:        sourcePlan(src),
			Fingerprint: src.Fingerprint(),
		}
		if is, ok := tgt.(interface{ InjectSignature() string }); ok {
			hdr.Inject = is.InjectSignature()
		}
		if eo.Resume {
			if resumed, err = readCheckpoint(st, eo.CheckpointPath, hdr); err != nil {
				return stats, err
			}
		}
	}
	if !resumed && eo.ShardDir != "" {
		// A fresh campaign must not inherit records: stale shards from an
		// earlier run in the same directory would survive the seq-dedup
		// of CollectShardsIn and contaminate the merged log. They go
		// before the new header is written, so a crash between the two
		// cannot leave a valid header beside a foreign campaign's records.
		if err := clearShards(st, eo.ShardDir); err != nil {
			return stats, err
		}
	}
	if !resumed && eo.CheckpointPath != "" {
		if err := writeCheckpoint(st, eo.CheckpointPath, hdr); err != nil {
			return stats, err
		}
	}
	done := map[int]bool{}
	if resumed {
		// The done set is every test with a complete shard record. The
		// same pass replays a feedback plan's coverage, so its frontier
		// (and corpus admission state) is restored before any pending
		// test is bred; without it the plan's At would wait forever on
		// feedback that already ran.
		if err := ScanShardsIn(st, eo.ShardDir, func(rec JSONRecord) error {
			if rec.Seq < 0 || rec.Seq >= total || done[rec.Seq] {
				return nil
			}
			done[rec.Seq] = true
			if fb != nil {
				fb.Feedback(rec.Seq, cover.FromSites(rec.Cover))
			}
			return nil
		}); err != nil {
			return stats, err
		}
	}
	stats.Skipped = len(done)
	pendingCount := total - stats.Skipped
	if eo.Limit > 0 && pendingCount > eo.Limit {
		pendingCount = eo.Limit
	}

	// The observability spine. Every handle below is nil-safe, so with
	// eo.Obs unset the instrumented sites degrade to one nil check each.
	em := obs.NewEngineMetrics(eo.Obs.Registry())
	prog := eo.Obs.Prog()
	var trace *obs.Tracer
	if eo.Obs != nil {
		trace = eo.Obs.Trace
		if trace == nil && eo.ShardDir != "" {
			// No caller-owned tracer: persist campaign/lease events next to
			// the shards, through the same store seam. TraceName does not
			// match ShardPattern, so merges never see it. Advisory — a
			// trace that cannot open does not fail the campaign.
			if tr, terr := obs.NewTracer(st, filepath.Join(eo.ShardDir, TraceName)); terr == nil {
				trace = tr
				defer trace.Close()
			}
		}
		prog.Begin(total, stats.Skipped)
		trace.Emit(obs.Event{Kind: "campaign.start", Campaign: sourcePlan(src), N: total, Detail: tgt.Name()})
		defer func() {
			trace.Emit(obs.Event{Kind: "campaign.end", Campaign: sourcePlan(src), N: stats.Executed})
		}()
	}

	// One worker per pending test at most, and one shard per worker:
	// worker w owns shard w.
	workers := min(opts.Workers, pendingCount)
	var writers []*shardWriter
	if eo.ShardDir != "" {
		if writers, err = openShards(st, eo.ShardDir, workers, resumed); err != nil {
			return stats, err
		}
		// A checkpointed campaign's shards are its progress record, and
		// the daemon's SSE replay shows a late subscriber every record a
		// live one saw, so each record is flushed as it is written.
		for _, w := range writers {
			w.flushEach = eo.CheckpointPath != ""
			w.encNs = em.EncodeNs
		}
	}
	if pendingCount == 0 {
		return stats, closeShards(writers)
	}

	if err := tgt.Provision(workers); err != nil {
		closeShards(writers)
		return stats, err
	}
	spec := opts.runSpec()

	// A lease hands a worker pending positions to execute in one held
	// slot; on a target with the BatchExecutor capability every lease,
	// a lease of one included, is one ExecuteBatch call. Only such
	// targets lease more than one position, and feedback sources never
	// do: their At blocks until every earlier position's coverage
	// arrives, which a multi-test lease would deadlock on (results only
	// flow after the whole lease completes).
	batch := eo.BatchSize
	be, _ := tgt.(target.BatchExecutor)
	if batch < 1 || be == nil || fb != nil {
		batch = 1
	}
	if batch > pendingCount {
		// No lease can hold more than the pending tests, and the
		// workers size their lease buffers by batch.
		batch = pendingCount
	}
	em.BatchSize.Set(int64(batch))

	// The coordinator walks the source's index space lazily — no pending
	// list is materialised, so a billion-test plan costs the same as a
	// small one until its tests actually run. A stop closes it: every
	// worker's next Next returns false, the workers return, and the
	// collector drains — shards flush with every completed test's record,
	// so the stopped campaign is exactly as resumable as an interrupted
	// one.
	coord := NewCoordinator(total, done, batch, pendingCount, 0)
	coord.Instrument(obs.NewLeaseMetrics(eo.Obs.Registry()), trace)
	defer context.AfterFunc(ctx, coord.Close)()

	// Write errors are latched, not fatal mid-flight — the campaign
	// completes and reports the first failure.
	var (
		errMu    sync.Mutex
		firstErr error
	)
	latch := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	// Four buffered results per worker: the collector's per-test work
	// (feedback, progress, sink) is serial, and the slack lets the
	// workers keep executing while it catches up instead of parking on a
	// full channel. One slot per worker made a cold `xmfuzz -stream` run
	// about 5% slower on a 2-vCPU host.
	results := make(chan posResult, 4*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		var shard *shardWriter
		if len(writers) > 0 {
			shard = writers[w]
		}
		// record logs one result of the worker's lease to its shard and
		// hands it to the collector.
		record := func(pos int, r Result) {
			if r.Aborted {
				// Not executed (a cancel reached the target mid-lease, or
				// the remote client was closed or out of attempts). The
				// result describes nothing, so it is dropped unlogged and
				// the position runs on resume. Unless a cancel came first,
				// the abort stops the campaign with the target's error; a
				// feedback plan hears of the gap like a skipped lease's.
				stop(fmt.Errorf("campaign: test %d not executed: %s", pos, r.RunErr))
				if fb != nil {
					fb.Feedback(pos, nil)
				}
				return
			}
			if shard != nil {
				latch(shard.write(pos, r))
			}
			results <- posResult{pos: pos, res: r}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			dss := make([]testgen.Dataset, 0, batch)
			for {
				lease, ok := coord.Next()
				if !ok {
					return
				}
				dss = dss[:0]
				for _, pos := range lease.Pos {
					dss = append(dss, src.At(pos))
				}
				if ctx.Err() != nil {
					// Stopped: skip the lease; it runs on resume. A
					// feedback plan hears that its positions ran without
					// coverage, so the At of a later position waiting on
					// them returns — and, checked after At, that position
					// is skipped in turn: nothing bred from the gap runs.
					if fb != nil {
						for _, pos := range lease.Pos {
							fb.Feedback(pos, nil)
						}
					}
					coord.Complete(lease.ID)
					continue
				}
				slot := tgt.Acquire()
				if be == nil {
					r := tgt.Execute(slot, dss[0], spec)
					tgt.Release(slot)
					coord.Complete(lease.ID)
					record(lease.Pos[0], r)
					continue
				}
				rs := be.ExecuteBatch(slot, dss, spec)
				tgt.Release(slot)
				coord.Complete(lease.ID)
				for i, pos := range lease.Pos {
					record(pos, rs[i])
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	for pr := range results {
		if fb != nil {
			// Close the loop: the plan buffers out-of-order arrivals
			// and applies them in position order.
			fb.Feedback(pr.pos, pr.res.Cover)
		}
		em.Executed.Inc()
		prog.Done(1)
		if prog != nil {
			prog.Outcome(outcomeClass(pr.res))
		}
		if sink != nil {
			sink(pr.pos, pr.res)
		}
		stats.Executed++
	}
	latch(closeShards(writers))
	if ps, ok := tgt.(interface{ PoolStats() sparc.PoolStats }); ok {
		stats.Pool = ps.PoolStats()
	}
	if firstErr == nil {
		// Surface a stop: shards are flushed with every completed test's
		// record, but the campaign did not finish. A caller's cancel
		// returns its context's error (errors.Is(err, context.Canceled));
		// an abort returns the error the target gave.
		if firstErr = parent.Err(); firstErr == nil {
			firstErr = context.Cause(ctx)
		}
	}
	return stats, firstErr
}

// TraceName is the trace-event stream an instrumented campaign writes
// next to its shards. It deliberately does not match ShardPattern:
// merges glob shard-*.jsonl and never read it.
const TraceName = "trace.jsonl"

// outcomeClass buckets a result for the live progress tally: the
// classified injection outcome when the run carried a fault, coarse
// health classes otherwise. This is display-grade classification — the
// authoritative analysis stays in the report pipeline.
func outcomeClass(r Result) string {
	switch {
	case r.Injection != nil && r.Injection.Outcome != "":
		return r.Injection.Outcome
	case r.RunErr != "":
		return "harness-error"
	case r.SimCrashed:
		return "sim-crash"
	case r.Divergence != nil:
		return "divergence"
	default:
		return "ok"
	}
}

// optionsSignature fingerprints the execution side of a campaign — the
// knobs that change what a test's log looks like — so a checkpoint cannot
// silently resume under different execution conditions. Coverage is one
// of them: records written with collection off would punch holes in a
// resumed campaign's edge accounting. (The target is recorded separately
// in the header so a backend mismatch gets its own refusal by name.)
func optionsSignature(total int, opts Options) string {
	return fmt.Sprintf("tests=%d|mafs=%d|stress=%v|cover=%v|faults=%+v",
		total, opts.MAFs, opts.Stress, opts.Coverage, opts.Faults)
}

// --- checkpoint --------------------------------------------------------

// ckptHeader is a checkpoint's one line: the execution signature plus
// the plan and backend the shard records belong to. (Older checkpoints
// follow it with {"seq":N} completion marks, which a resume ignores.)
type ckptHeader struct {
	Campaign string `json:"campaign"`
	// Target names the execution backend ("sim", "phantom",
	// "diff:sim,phantom"). A resume on any other backend is refused —
	// the shard records would mix two targets' logs into one campaign.
	Target string `json:"target,omitempty"`
	// Plan is the generation strategy ("exhaustive", "pairwise", …, or
	// "slice" for pre-built lists); Fingerprint is the source's full
	// content identity. A resume under any other plan is refused — its
	// positions would index a different stream and the shards would mix
	// two campaigns.
	Plan        string `json:"plan,omitempty"`
	Fingerprint string `json:"plan_fp,omitempty"`
	// Inject is the SEU schedule signature of inject:* targets (empty
	// elsewhere). A resume under a different schedule is refused — the
	// recorded logs would splice two distinct fault sequences into one
	// campaign.
	Inject string `json:"inject,omitempty"`
}

// writeCheckpoint starts a fresh campaign's checkpoint at path in st: its
// header line, written once.
func writeCheckpoint(st store.CheckpointStore, path string, hdr ckptHeader) error {
	w, err := st.CreateCheckpoint(path)
	if err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	line, _ := json.Marshal(hdr)
	if _, err := w.Write(append(line, '\n')); err != nil {
		w.Close()
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint checks the header of the checkpoint at path in st
// against want. It reports false when there is no checkpoint (resuming a
// campaign that never started is a fresh start) and refuses, by name, a
// checkpoint of any other campaign.
func readCheckpoint(st store.CheckpointStore, path string, want ckptHeader) (bool, error) {
	data, err := st.ReadCheckpoint(path)
	switch {
	case errors.Is(err, store.ErrNotExist):
		return false, nil
	case err != nil:
		return false, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	if len(line) == 0 {
		return false, fmt.Errorf("campaign: checkpoint %s is empty", path)
	}
	var hdr ckptHeader
	if err := json.Unmarshal(line, &hdr); err != nil || hdr.Campaign == "" {
		return false, fmt.Errorf("campaign: checkpoint %s has no header", path)
	}
	if hdr.Plan == "" && hdr.Fingerprint == "" {
		return false, fmt.Errorf(
			"campaign: checkpoint %s predates plan recording and cannot be safely resumed — start fresh without resume", path)
	}
	if hdr.Target == "" {
		// Checkpoints written before target recording all ran on the only
		// backend that existed; their shard records (which also omit the
		// default target) resume cleanly.
		hdr.Target = target.SimName
	}
	if hdr.Target != want.Target {
		return false, fmt.Errorf(
			"campaign: checkpoint %s records target %q, but this run executes on %q — rerun with the checkpointed target, or start fresh without resume",
			path, hdr.Target, want.Target)
	}
	if hdr.Inject != want.Inject {
		return false, fmt.Errorf(
			"campaign: checkpoint %s records injection schedule %q, but this run injects %q — rerun with the checkpointed schedule, or start fresh without resume",
			path, hdr.Inject, want.Inject)
	}
	if hdr.Plan != want.Plan || hdr.Fingerprint != want.Fingerprint {
		return false, fmt.Errorf(
			"campaign: checkpoint %s records plan %s (fingerprint %s), but this run generates plan %s (fingerprint %s) — rerun with the checkpointed plan, or start fresh without resume",
			path, hdr.Plan, hdr.Fingerprint, want.Plan, want.Fingerprint)
	}
	if hdr.Campaign != want.Campaign {
		return false, fmt.Errorf("campaign: checkpoint %s belongs to a different campaign (%s, this run: %s)",
			path, hdr.Campaign, want.Campaign)
	}
	return true, nil
}

// --- shards ------------------------------------------------------------

// shardWriter owns one JSON Lines shard file. Records encode through the
// record codec into a reused buffer. When a checkpoint is in play the
// writer flushes per record, for resume and the SSE replay to read;
// without one the only reader is the post-run merge, so records ride the
// bufio buffer until close and the per-record write(2) disappears from
// the hot path. After a failed write the writer latches broken: a short write leaves a partial record at the tail, and
// appending anything after it would corrupt the shard mid-file, beyond
// what readers can skip.
type shardWriter struct {
	w         io.WriteCloser
	bw        *bufio.Writer
	flushEach bool
	buf       []byte
	scr       recordScratch
	broken    error
	// encNs, when non-nil, observes per-record encode latency
	// (xm_engine_encode_ns); uninstrumented runs pay one nil check.
	encNs *obs.Histogram
}

// ShardPattern matches the shard files of a campaign directory.
const ShardPattern = "shard-*.jsonl"

// shardPath names shard i of dir.
func shardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.jsonl", i))
}

// clearShards removes every shard of dir.
func clearShards(st store.LogStore, dir string) error {
	stale, err := st.ListLogs(filepath.Join(dir, ShardPattern))
	if err != nil {
		return fmt.Errorf("campaign: shards: %w", err)
	}
	for _, p := range stale {
		if err := st.RemoveLog(p); err != nil {
			return fmt.Errorf("campaign: shards: %w", err)
		}
	}
	return nil
}

func openShards(st store.LogStore, dir string, n int, resume bool) ([]*shardWriter, error) {
	writers := make([]*shardWriter, 0, n)
	for i := 0; i < n; i++ {
		// On resume the store trims a torn trailing record first: records
		// never contain newlines, so "complete" means newline-terminated,
		// and appending after a fragment would corrupt the shard mid-file.
		w, err := st.AppendLog(shardPath(dir, i), resume)
		if err != nil {
			closeShards(writers)
			return nil, fmt.Errorf("campaign: shards: %w", err)
		}
		writers = append(writers, &shardWriter{w: w, bw: bufio.NewWriter(w)})
	}
	return writers, nil
}

func (w *shardWriter) write(pos int, r Result) error {
	if w.broken != nil {
		return w.broken
	}
	var t0 time.Time
	if w.encNs != nil {
		t0 = time.Now() //xmlint:allow determinism -- encode-latency histogram; the reading feeds obs, never the record bytes
	}
	rec := w.scr.toRecord(pos, r)
	buf, err := Codec{}.AppendEncode(w.buf[:0], &rec)
	if w.encNs != nil {
		//xmlint:allow determinism -- encode-latency histogram; the reading feeds obs, never the record bytes
		w.encNs.Observe(float64(time.Since(t0).Nanoseconds()))
	}
	if err == nil {
		w.buf = append(buf, '\n')
		_, err = w.bw.Write(w.buf)
	}
	if err != nil {
		w.broken = fmt.Errorf("campaign: shard record %d: %w", pos, err)
		return w.broken
	}
	if w.flushEach {
		if err := w.bw.Flush(); err != nil {
			w.broken = fmt.Errorf("campaign: shard record %d: %w", pos, err)
			return w.broken
		}
	}
	return nil
}

func closeShards(writers []*shardWriter) error {
	var firstErr error
	for _, w := range writers {
		// A broken writer's buffer may hold the tail of a half-written
		// record; flushing it would splice garbage mid-file.
		if w.broken == nil {
			if err := w.bw.Flush(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := w.w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ScanShards streams every record of a campaign directory through fn, one
// at a time, without holding the log in memory — the read side of the
// streaming engine for incremental consumers. Records arrive in file
// order, not campaign order, and a record may repeat across an
// interruption; callers needing uniqueness dedupe by Seq (duplicates are
// byte-identical, execution being deterministic). A final line without
// its newline is a torn record from an interrupted run and is skipped.
func ScanShards(dir string, fn func(JSONRecord) error) error {
	return ScanShardsIn(store.Local(), dir, fn)
}

// ScanShardsIn is ScanShards over an explicit log store — the read side
// of a campaign whose shards live off the local disk.
func ScanShardsIn(st store.LogStore, dir string, fn func(JSONRecord) error) error {
	paths, err := st.ListLogs(filepath.Join(dir, ShardPattern))
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := scanShard(st, p, fn); err != nil {
			return err
		}
	}
	return nil
}

// scanShard streams the complete records of one shard through fn.
func scanShard(st store.LogStore, p string, fn func(JSONRecord) error) error {
	f, err := st.OpenLog(p)
	if err != nil {
		return fmt.Errorf("campaign: shards: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// What follows the last newline is a torn record from an
			// interrupted run, or nothing: "complete" means
			// newline-terminated, see the store's torn-tail trim.
			return nil
		}
		if err != nil {
			return fmt.Errorf("campaign: shard %s: %w", p, err)
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec JSONRecord
		if err := (Codec{}).Decode(line, &rec); err != nil {
			// Mid-file corruption is worth reporting.
			return fmt.Errorf("campaign: shard %s: %w", p, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// CollectShardsIn loads every shard record of a campaign directory in st,
// restores campaign order and drops duplicates (a record written twice
// around an interruption keeps its first copy). It holds the whole log
// in memory — merging wants random access; incremental consumers use
// ScanShardsIn.
func CollectShardsIn(st store.LogStore, dir string) ([]JSONRecord, error) {
	var records []JSONRecord
	if err := ScanShardsIn(st, dir, func(rec JSONRecord) error {
		records = append(records, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	sort.SliceStable(records, func(a, b int) bool { return records[a].Seq < records[b].Seq })
	out := records[:0]
	for i, rec := range records {
		if i > 0 && rec.Seq == records[i-1].Seq {
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// MergeShards writes the shard records of dir to w as one JSON Lines log
// in campaign order — the same byte stream WriteJSON produces for the
// same campaign's in-memory results, however many workers (local or
// remote) executed them. It returns the record count.
func MergeShards(dir string, w io.Writer) (int, error) {
	return MergeShardsIn(store.Local(), dir, w)
}

// MergeShardsIn is MergeShards over an explicit log store.
func MergeShardsIn(st store.LogStore, dir string, w io.Writer) (int, error) {
	records, err := CollectShardsIn(st, dir)
	if err != nil {
		return 0, err
	}
	var buf []byte
	for i := range records {
		if buf, err = (Codec{}).AppendEncode(buf[:0], &records[i]); err != nil {
			return 0, err
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return 0, err
		}
	}
	return len(records), nil
}
