// Package serve is the campaign service behind cmd/xmrobustd: it turns
// the invoke-and-wait library (pkg/xmrobust) into a long-running daemon
// that accepts campaign submissions over HTTP, executes them on a
// bounded executor over the shared machine pool, and streams per-test
// records and progress deltas live over Server-Sent Events.
//
// The service is a thin composition of existing seams, not a second
// engine: submissions validate through campaign.BuildPlan, execute
// through campaign.StreamPlan with a shard directory and checkpoint
// under the data directory (so a cancelled campaign resumes with the
// ordinary -resume tooling), and persist through the internal/store
// seam. The SSE stream is byte-consistent with the merged log: live
// records are the campaign-order record lines the merge produces, late
// subscribers replay the already-written records out of the shard
// files, and consumers that order by seq and drop duplicates hold the
// exact bytes of GET /v1/campaigns/{id}/log.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"xmrobust/internal/campaign"
	"xmrobust/internal/inject"
	"xmrobust/internal/obs"
	"xmrobust/internal/store"
	"xmrobust/internal/xm"
)

// State is a campaign's position in the service lifecycle.
type State string

// Campaign lifecycle states. Queued and Running are live (DELETE
// cancels them); the other three are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateCanceled State = "canceled"
	StateFailed   State = "failed"
)

// Terminal reports whether the state is final.
func (st State) Terminal() bool {
	return st == StateDone || st == StateCanceled || st == StateFailed
}

// Submission is the body of POST /v1/campaigns: the campaign-shaping
// subset of the library options. Zero values mean the library defaults
// (exhaustive plan, sim target, seed 0).
type Submission struct {
	// Plan selects the test-generation strategy ("exhaustive",
	// "pairwise", "rand:N", "feedback:N", ...).
	Plan string `json:"plan,omitempty"`
	// Target selects the execution backend ("sim", "phantom",
	// "diff:a,b", "inject:sim", ...).
	Target string `json:"target,omitempty"`
	// Seed feeds randomised plans and injection schedules.
	Seed int64 `json:"seed,omitempty"`
	// MAFs is the number of major frames per test (0: default).
	MAFs int `json:"mafs,omitempty"`
	// Workers is the engine parallelism (0: GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Batch is how many contiguous tests a worker leases at a time on
	// batching targets (sim, remote:), sharing the lease's coordinator
	// round trip and, on remote: targets, its request frame (0: the
	// engine's default of 16; 1: one test per lease; results identical
	// either way).
	Batch int `json:"batch,omitempty"`
	// Limit stops dispatching after N tests (0: run everything); the
	// checkpoint makes the balance resumable.
	Limit int `json:"limit,omitempty"`
	// Stress pre-loads the system before injection (paper §V).
	Stress bool `json:"stress,omitempty"`
	// Patched tests the post-fault-removal kernel.
	Patched bool `json:"patched,omitempty"`
	// Coverage collects kernel edge coverage per test.
	Coverage bool `json:"coverage,omitempty"`
	// InjectRate and InjectSites parameterise the SEU schedule of
	// inject:* targets (rate in (0,1]; no sites: all).
	InjectRate  float64  `json:"inject_rate,omitempty"`
	InjectSites []string `json:"inject_sites,omitempty"`
	// Client identifies the submitter for the per-client queue limit
	// (empty: the connection's remote host).
	Client string `json:"client,omitempty"`
}

// Status is the service's view of one campaign — the body of
// GET /v1/campaigns/{id} and of SSE status events.
type Status struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Plan   string `json:"plan"`
	Target string `json:"target"`
	Seed   int64  `json:"seed"`
	// Total is the campaign size; Executed ran in the service; Skipped
	// were restored from a checkpoint (always 0 today — the service
	// starts campaigns fresh; resume is the CLI's job).
	Total    int `json:"total"`
	Executed int `json:"executed"`
	Skipped  int `json:"skipped"`
	// Dir is the campaign's shard+checkpoint directory — the -stream
	// directory a cancelled campaign resumes from.
	Dir string `json:"dir"`
	// Client is the submitter identity the queue limit counted.
	Client string `json:"client,omitempty"`
	// Error carries the failure (state "failed") or cancellation cause.
	Error string `json:"error,omitempty"`
}

// Config parameterises the service.
type Config struct {
	// DataDir is where campaign directories (shards + checkpoint) are
	// created, one subdirectory per campaign ID. Required.
	DataDir string
	// MaxActive bounds concurrently executing campaigns (default 1):
	// queued submissions wait for a slot in submission order.
	MaxActive int
	// MaxPerClient bounds one client's live (queued + running)
	// campaigns (default 4); beyond it POST returns 429.
	MaxPerClient int
	// Obs is the observability handle the service mounts (/metrics,
	// /healthz, /progress, pprof) and threads through every campaign's
	// engine. Nil: a private handle is created.
	Obs *obs.Obs
	// Store is the persistence seam campaigns write through (nil: the
	// local filesystem).
	Store store.Store
	// Logf, when non-nil, receives service log lines.
	Logf func(format string, args ...any)
}

// Server owns the campaign lifecycle: submission, the bounded
// executor, cancellation, status, and the per-campaign event hubs. It
// serves HTTP through Handler and drains through Shutdown.
type Server struct {
	cfg Config
	obs *obs.Obs
	st  store.Store
	sem chan struct{} // executor slots (MaxActive)
	wg  sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*job // live campaigns: queued or running
	// settled holds the final status of every settled campaign; its job
	// (hub, context, submission) is gone.
	settled   map[string]Status
	order     []string // submission order, for listing
	perClient map[string]int
	nextID    int
	draining  bool
}

// job is one submitted campaign.
type job struct {
	id     string
	dir    string
	client string
	sub    Submission
	opts   campaign.Options
	cancel context.CancelFunc
	ctx    context.Context
	hub    *hub

	mu       sync.Mutex
	state    State
	errStr   string
	total    int
	executed int
	skipped  int
}

// New builds the service. The data directory is created on first
// campaign; existing campaign directories only advance the ID counter,
// so a restarted daemon never reuses an old campaign's directory.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("serve: Config.DataDir is required")
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 1
	}
	if cfg.MaxPerClient <= 0 {
		cfg.MaxPerClient = 4
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	if cfg.Store == nil {
		cfg.Store = store.Local()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:       cfg,
		obs:       cfg.Obs,
		st:        cfg.Store,
		sem:       make(chan struct{}, cfg.MaxActive),
		jobs:      map[string]*job{},
		settled:   map[string]Status{},
		perClient: map[string]int{},
		nextID:    1,
	}
	// Prior daemon lifetimes left their campaign directories behind
	// (each holds a checkpoint); start numbering above them.
	if names, err := s.st.ListLogs(store.JoinPattern(cfg.DataDir, "c*", checkpointName)); err == nil {
		for _, name := range names {
			base := store.Base(name[:len(name)-len(checkpointName)-1])
			if n, err := strconv.Atoi(strings.TrimPrefix(base, "c")); err == nil && n >= s.nextID {
				s.nextID = n + 1
			}
		}
	}
	return s, nil
}

// checkpointName is the checkpoint file inside a campaign directory —
// the same name the xmfuzz -stream path uses, so `xmfuzz -stream
// <dir> -resume` continues a cancelled service campaign directly.
const checkpointName = "checkpoint.jsonl"

// submitError maps a refused submission onto its HTTP status.
type submitError struct {
	code int
	msg  string
}

func (e *submitError) Error() string { return e.msg }

// Submit validates and enqueues one campaign, returning its initial
// status. Refusals come back as *submitError: 400 for a bad
// specification, 429 past the client's queue limit, 503 while
// draining.
func (s *Server) Submit(sub Submission, client string) (Status, error) {
	if sub.Client != "" {
		client = sub.Client
	}
	if client == "" {
		client = "anonymous"
	}
	opts := campaign.Options{
		Plan:     sub.Plan,
		Target:   sub.Target,
		Seed:     sub.Seed,
		MAFs:     sub.MAFs,
		Workers:  sub.Workers,
		Stress:   sub.Stress,
		Coverage: sub.Coverage,
		Inject:   inject.Params{Rate: sub.InjectRate, Sites: sub.InjectSites},
	}
	if sub.Patched {
		opts.Faults = xm.PatchedFaults()
	}
	if err := (campaign.EngineOptions{Options: opts, BatchSize: sub.Batch, Limit: sub.Limit}).Validate(); err != nil {
		return Status{}, &submitError{400, err.Error()}
	}
	// Build the plan once up front so a bad spec (unknown plan or
	// target, malformed composite) is a 400 at submission, not a failed
	// campaign minutes later. The runner rebuilds it; plans are cheap
	// to construct and deterministic.
	plan, _, err := campaign.BuildPlan(opts)
	if err != nil {
		return Status{}, &submitError{400, err.Error()}
	}
	total := plan.Len()
	if c, ok := plan.(io.Closer); ok {
		c.Close()
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Status{}, &submitError{503, "service is draining"}
	}
	if s.perClient[client] >= s.cfg.MaxPerClient {
		s.mu.Unlock()
		return Status{}, &submitError{429, fmt.Sprintf("client %q already has %d live campaigns", client, s.perClient[client])}
	}
	id := fmt.Sprintf("c%06d", s.nextID)
	s.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:     id,
		dir:    filepath.Join(s.cfg.DataDir, id),
		client: client,
		sub:    sub,
		opts:   opts,
		cancel: cancel,
		ctx:    ctx,
		hub:    newHub(),
		state:  StateQueued,
		total:  total,
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.perClient[client]++
	s.wg.Add(1)
	s.mu.Unlock()

	s.cfg.Logf("campaign %s queued: plan=%q target=%q seed=%d total=%d client=%s",
		id, sub.Plan, sub.Target, sub.Seed, total, client)
	go s.run(j)
	return j.status(), nil
}

// run executes one campaign: wait for an executor slot, stream the
// plan through the engine with the SSE sink attached, settle the
// terminal state.
func (s *Server) run(j *job) {
	defer s.wg.Done()

	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-j.ctx.Done():
		// Cancelled while queued: nothing ran, nothing was written.
		s.finish(j, StateCanceled, context.Cause(j.ctx).Error())
		return
	}
	if j.ctx.Err() != nil {
		s.finish(j, StateCanceled, context.Cause(j.ctx).Error())
		return
	}

	j.setState(StateRunning)
	j.hub.broadcast(event{kind: "status", data: mustJSON(j.status()), seq: -1})

	plan, ropts, err := campaign.BuildPlan(j.opts)
	if err != nil {
		s.finish(j, StateFailed, err.Error())
		return
	}
	if c, ok := plan.(io.Closer); ok {
		defer c.Close()
	}
	eo := campaign.EngineOptions{
		Options:        ropts,
		Ctx:            j.ctx,
		ShardDir:       j.dir,
		CheckpointPath: filepath.Join(j.dir, checkpointName),
		BatchSize:      j.sub.Batch,
		Limit:          j.sub.Limit,
		Store:          s.st,
		Obs:            s.obs,
	}
	// The sink runs on the worker that executed the test, after the
	// record is written to its shard and flushed, so every record a
	// subscriber sees live is already durable — exactly what shard
	// replay will show a later subscriber. line is the record as the
	// shard holds it; a test whose shard write failed has none, and
	// the campaign fails.
	sink := func(pos int, _ campaign.Result, line []byte) {
		j.mu.Lock()
		j.executed++
		done, total := j.executed+j.skipped, j.total
		j.mu.Unlock()
		progress := event{kind: "progress", data: progressData(done, total), seq: -1}
		if line == nil {
			j.hub.broadcast(progress)
			return
		}
		j.hub.broadcast(event{kind: "record", data: append([]byte(nil), line...), seq: pos}, progress)
	}
	stats, err := campaign.StreamPlan(plan, eo, sink)
	j.mu.Lock()
	j.executed, j.skipped, j.total = stats.Executed, stats.Skipped, stats.Total
	j.mu.Unlock()
	switch {
	case err != nil && j.ctx.Err() != nil:
		// Shards are flushed and the checkpoint header is on disk: the
		// campaign directory resumes like any interrupted run.
		s.finish(j, StateCanceled, err.Error())
	case err != nil:
		s.finish(j, StateFailed, err.Error())
	default:
		s.finish(j, StateDone, "")
	}
}

// finish settles the campaign in its terminal state, then ends its
// event stream and logs the outcome. In one critical section under
// s.mu the job takes the terminal state, its client's slot is
// released, and its final status enters settled as the job leaves
// jobs. So a client that sees the campaign terminal, by GET or by the
// end event, may submit again at once, and a request that follows the
// end event always finds the campaign. Subscribers then get the final
// status and the end event before their channels close.
func (s *Server) finish(j *job, st State, errStr string) {
	s.mu.Lock()
	j.mu.Lock()
	j.state = st
	j.errStr = errStr
	j.mu.Unlock()
	final := j.status()
	s.perClient[j.client]--
	if s.perClient[j.client] <= 0 {
		delete(s.perClient, j.client)
	}
	s.settled[j.id] = final
	delete(s.jobs, j.id)
	s.mu.Unlock()
	j.hub.broadcast(event{kind: "status", data: mustJSON(final), seq: -1},
		event{kind: "end", data: endData(st, errStr), seq: -1})
	j.hub.close()
	s.cfg.Logf("campaign %s %s: executed=%d/%d %s", j.id, st, final.Executed, final.Total, errStr)
}

// lookup returns the live job named id, or the final status of a
// settled one (with a nil job); ok is false for an unknown ID.
func (s *Server) lookup(id string) (j *job, final Status, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j = s.jobs[id]; j != nil {
		return j, Status{}, true
	}
	final, ok = s.settled[id]
	return nil, final, ok
}

// Cancel cancels a queued or running campaign. It reports false when
// the ID is unknown; a campaign already terminal is left untouched
// (the returned status says so).
func (s *Server) Cancel(id string) (Status, bool) {
	j, final, ok := s.lookup(id)
	if j == nil {
		return final, ok
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if !terminal {
		j.cancel()
	}
	return j.status(), true
}

// Get returns one campaign's status.
func (s *Server) Get(id string) (Status, bool) {
	j, final, ok := s.lookup(id)
	if j == nil {
		return final, ok
	}
	return j.status(), true
}

// List returns every campaign's status in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if st, ok := s.Get(id); ok {
			out = append(out, st)
		}
	}
	return out
}

// MergedLog writes the campaign's merged JSON Lines log to w in
// campaign order — byte-identical to the library's merged log for the
// same submission. Mid-run it returns the durable prefix.
func (s *Server) MergedLog(id string, w io.Writer) (int, error) {
	j, final, ok := s.lookup(id)
	switch {
	case !ok:
		return 0, fmt.Errorf("serve: unknown campaign %q", id)
	case j != nil:
		return campaign.MergeShardsIn(s.st, j.dir, w)
	}
	return campaign.MergeShardsIn(s.st, final.Dir, w)
}

// Shutdown drains the service: submissions start returning 503, every
// queued and running campaign is cancelled (running ones flush their
// shards, staying resumable), and Shutdown returns when all
// runners have settled or ctx expires. SSE subscribers see the final
// status and end events before their streams close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- job state ----------------------------------------------------------

// status snapshots the job.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:       j.id,
		State:    j.state,
		Plan:     j.opts.Plan,
		Target:   j.opts.Target,
		Seed:     j.opts.Seed,
		Total:    j.total,
		Executed: j.executed,
		Skipped:  j.skipped,
		Dir:      j.dir,
		Client:   j.client,
		Error:    j.errStr,
	}
}

func (j *job) setState(st State) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

// progressData is the body of an SSE progress event.
func progressData(done, total int) []byte {
	b := make([]byte, 0, len(`{"done":,"total":}`)+40)
	b = strconv.AppendInt(append(b, `{"done":`...), int64(done), 10)
	b = strconv.AppendInt(append(b, `,"total":`...), int64(total), 10)
	return append(b, '}')
}
