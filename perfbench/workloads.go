package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmrobust/internal/campaign"
	"xmrobust/internal/core"
	"xmrobust/internal/inject"
	"xmrobust/internal/obs"
	"xmrobust/internal/remote"
	"xmrobust/internal/report"
	"xmrobust/internal/serve"
	"xmrobust/internal/sparc"
	"xmrobust/internal/store"
	"xmrobust/internal/target"
	"xmrobust/pkg/xmrobust"
)

// paperIssues is the paper's result: the exhaustive campaign on the
// legacy kernel clusters into nine robustness issues.
const paperIssues = 9

// distinctInputs is how many distinct rand plans the seeded workloads
// cycle through: submission n runs input n mod distinctInputs, so every
// reference log is computed once, before the run.
const distinctInputs = 16

// campaignTimeout bounds one campaign, so a hung system fails the run
// instead of outliving the benchmark's time limit.
const campaignTimeout = 60 * time.Second

// workload is one named closed-loop traffic mix.
type workload struct {
	name, why string
	clients   int
	// inputs derives the distinct campaign inputs from the seed and
	// computes each one's reference log through the other entry point.
	inputs func(seed int64, dir string) ([]input, error)
	// start builds the system under test in a fresh directory.
	start func(e *env) (system, error)
	// The layers the workload's campaign path enters besides execution:
	// record encoding (shards), the analysis re-scan and merge of a
	// shard directory, and CRASH classification.
	encodes, scans, classifies bool
}

var workloads = []*workload{
	{
		name:    "paper-inmem",
		why:     "plain xmfuzz: the paper's exhaustive campaign in memory plus its summary; bound by execution and the no-change side for persistence",
		clients: 1, inputs: paperInputs(false), start: startLibrary(false, true, paperIssues),
		classifies: true,
	},
	{
		name:    "paper-stream",
		why:     "xmfuzz -stream DIR -o LOG: paper-inmem's inputs through shards, checkpoint, re-scan and merge, so the difference is the persistence path",
		clients: 1, inputs: paperInputs(true), start: startLibrary(true, true, paperIssues),
		encodes: true, scans: true, classifies: true,
	},
	{
		name:    "daemon-sse",
		why:     "xmrobustd defaults with 2 clients posting rand:500 campaigns and reading SSE to the end: submission, queueing, fan-out and time to first record",
		clients: 2, inputs: randInputs("rand:500"), start: startDaemon,
		encodes: true,
	},
	{
		name:    "remote-fleet",
		why:     "2 loopback sim workers behind remote:a,b running checkpointed rand:800 campaigns and merging the log: the only workload paying wire cost",
		clients: 1, inputs: randInputs("rand:800"), start: startFleet,
		encodes: true, scans: true, classifies: true,
	},
}

func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// input is one distinct campaign input and its reference output.
type input struct {
	plan    string
	seed    int64
	tests   int      // records in the reference log
	crashes int      // records of tests that crashed the simulator
	digest  [32]byte // SHA-256 of the reference merged log
	log     []byte   // the reference log, kept for traced replays only
}

// env is what a workload's system is built from.
type env struct {
	dir     string   // fresh, empty directory owned by this system
	tg      *tracing // nil in untraced runs
	clients int
}

// system is a built system under test.
type system interface {
	// campaign runs submission n of input in as client c and checks its
	// output.
	campaign(c int, n int64, in *input) outcome
	// shardDir names the shard directory of the last finished campaign
	// ("" when the workload writes none).
	shardDir() string
	close() error
}

// outcome is what a client observed of one campaign.
type outcome struct {
	start time.Time
	first time.Duration // to the first record reaching the caller
	dur   time.Duration // to the last byte
	tests int           // records that reached the caller
	err   error

	// daemon-sse client timings and stream counts
	submit, queueWait, runToFirst time.Duration
	sawRunning                    bool
	events, sseBytes              int64
	lagged                        bool

	// poolChecked reports that the pool counters of the campaign's
	// execution backend were observed and matched the output.
	poolChecked bool
}

// --- inputs and reference logs -------------------------------------------

// paperInputs is the paper's exhaustive campaign, which ignores the
// seed. The reference log comes through the entry point the workload
// does not use: the in-memory log for a streamed workload, merged shards
// for the in-memory one.
func paperInputs(streamed bool) func(int64, string) ([]input, error) {
	return func(_ int64, dir string) ([]input, error) {
		in := input{}
		var opts []xmrobust.Option
		if !streamed {
			opts = append(opts, xmrobust.WithCheckpoint(filepath.Join(dir, "reference")))
		}
		rep, err := xmrobust.Run(opts...)
		if err != nil {
			return nil, fmt.Errorf("reference campaign: %w", err)
		}
		if n := len(rep.Issues()); n != paperIssues {
			return nil, fmt.Errorf("reference campaign reports %d issues, want %d", n, paperIssues)
		}
		if err := in.setReference(rep); err != nil {
			return nil, err
		}
		return []input{in}, nil
	}
}

// randInputs cycles distinctInputs seeded rand plans; input k's plan
// seed mixes the workload seed with k. References run in memory on the
// local sim, the entry point neither the daemon nor the fleet uses.
func randInputs(plan string) func(int64, string) ([]input, error) {
	return func(seed int64, _ string) ([]input, error) {
		ins := make([]input, distinctInputs)
		for k := range ins {
			ins[k] = input{plan: plan, seed: seed*1009 + int64(k)}
			rep, err := xmrobust.Run(xmrobust.WithPlan(plan), xmrobust.WithSeed(ins[k].seed))
			if err != nil {
				return nil, fmt.Errorf("reference campaign %d: %w", k, err)
			}
			if err := ins[k].setReference(rep); err != nil {
				return nil, err
			}
		}
		return ins, nil
	}
}

func (in *input) setReference(rep *xmrobust.Report) error {
	if n := rep.HarnessErrors(); n > 0 {
		return fmt.Errorf("reference campaign %s seed %d has %d harness errors", in.plan, in.seed, n)
	}
	var buf bytes.Buffer
	if _, err := rep.WriteLog(&buf); err != nil {
		return fmt.Errorf("reference log: %w", err)
	}
	in.log = buf.Bytes()
	in.digest = sha256.Sum256(in.log)
	in.tests = bytes.Count(in.log, []byte("\n"))
	in.crashes = bytes.Count(in.log, []byte(`"sim_crashed":true`))
	return nil
}

// check compares a campaign's merged log with its reference, and the
// pool counters of its backend, when observed, with what the log
// implies: one machine acquire per test, one discard per crashed
// simulator.
func (in *input) check(log []byte, pool *sparc.PoolStats) error {
	if sha256.Sum256(log) != in.digest {
		return fmt.Errorf("merged log of %s seed %d differs from the reference (%d records, want %d)",
			in.plan, in.seed, bytes.Count(log, []byte("\n")), in.tests)
	}
	if pool != nil {
		if gets := pool.Allocated + pool.Reused; gets != uint64(in.tests) || pool.Discarded != uint64(in.crashes) {
			return fmt.Errorf("pool counts of %s seed %d: %d acquires and %d discards, want %d and %d",
				in.plan, in.seed, gets, pool.Discarded, in.tests, in.crashes)
		}
	}
	return nil
}

// --- library campaigns -----------------------------------------------------

// libSystem runs campaigns through the library: xmrobust.Run in
// untraced phases, and in traced phases the same pipeline through core
// with a wrapping TargetInstance and Store, built as the facade and the
// engine build them.
type libSystem struct {
	tg      *tracing
	target  string // "" is the sim default
	stream  bool   // WithCheckpoint, then WriteLog to a file
	summary bool   // render Report.Summary
	issues  int    // expected issue count (0: unchecked)
	dir     string // the campaign's -stream directory, reused like xmfuzz -stream DIR
	logPath string
	buf     bytes.Buffer
	fleet   *fleet // the workers behind a remote target
}

func startLibrary(stream, summary bool, issues int) func(*env) (system, error) {
	return func(e *env) (system, error) {
		return &libSystem{tg: e.tg, stream: stream, summary: summary, issues: issues,
			dir: filepath.Join(e.dir, "campaign"), logPath: filepath.Join(e.dir, "campaign.log")}, nil
	}
}

// libProduct is a finished campaign as its caller holds it.
type libProduct struct {
	summary  func() string
	issues   int
	harness  int
	writeLog func(io.Writer) (int, error)
}

func (s *libSystem) runFacade(in *input) (libProduct, error) {
	opts := []xmrobust.Option{xmrobust.WithPlan(in.plan), xmrobust.WithSeed(in.seed)}
	if s.target != "" {
		opts = append(opts, xmrobust.WithTarget(s.target))
	}
	if s.stream {
		opts = append(opts, xmrobust.WithCheckpoint(s.dir))
	}
	rep, err := xmrobust.Run(opts...)
	if err != nil {
		return libProduct{}, err
	}
	return libProduct{summary: rep.Summary, issues: len(rep.Issues()), harness: rep.HarnessErrors(), writeLog: rep.WriteLog}, nil
}

// runTraced is xmrobust.Run unrolled: the same options, the target built
// with the Config the engine would give it, wrapped, and passed in as
// the TargetInstance; checkpointed campaigns write through a wrapping
// store. Report.Summary and Report.WriteLog unroll the same way, and the
// summary and the merge of a streamed log are spans of the campaign.
func (s *libSystem) runTraced(in *input) (libProduct, error) {
	opts := campaign.Options{Plan: in.plan, Target: s.target, Seed: in.seed}
	tgt, err := target.New(opts.Target, target.Config{Inject: inject.Params{Seed: opts.Seed}})
	if err != nil {
		return libProduct{}, err
	}
	eo := campaign.EngineOptions{Options: opts, TargetInstance: wrapTarget(tgt, s.tg, "target")}
	if !s.stream {
		rep, err := core.RunCampaign(opts, eo)
		if err != nil {
			return libProduct{}, err
		}
		harness := 0
		for _, r := range rep.Results {
			if r.RunErr != "" {
				harness++
			}
		}
		return libProduct{
			summary: func() (out string) {
				s.tg.timed("report.summary", func() { out = report.Full(rep) })
				return out
			},
			issues: len(rep.Issues), harness: harness,
			writeLog: func(w io.Writer) (int, error) {
				return len(rep.Results), campaign.WriteJSON(w, rep.Results)
			},
		}, nil
	}
	eo.ShardDir = s.dir
	eo.CheckpointPath = filepath.Join(s.dir, "checkpoint.jsonl")
	eo.Store = tracedStore{Store: store.Local(), tg: s.tg}
	rep, err := core.RunCampaignStream(opts, eo)
	if err != nil {
		return libProduct{}, err
	}
	return libProduct{
		summary: func() (out string) {
			s.tg.timed("report.summary", func() { out = report.StreamSummary(rep) })
			return out
		},
		issues: len(rep.Issues), harness: rep.HarnessErrors,
		writeLog: func(w io.Writer) (n int, err error) {
			s.tg.timed("campaign.merge", func() { n, err = campaign.MergeShards(s.dir, w) })
			return n, err
		},
	}, nil
}

func (s *libSystem) campaign(_ int, n int64, in *input) (o outcome) {
	tr := s.tg.on()
	if tr != nil {
		s.tg.current.Store(n)
	}
	var before sparc.PoolStats
	if s.fleet != nil {
		before = s.fleet.poolStats()
	}
	o.start = time.Now()
	var (
		prod libProduct
		err  error
	)
	if tr == nil {
		prod, err = s.runFacade(in)
	} else {
		prod, err = s.runTraced(in)
	}
	if err != nil {
		o.err = err
		return o
	}
	ran := time.Now()
	if s.summary {
		_ = prod.summary()
	}
	var end time.Time
	if s.stream {
		var lw *firstWriter
		lw, err = s.writeLogFile(prod)
		end = time.Now()
		if err != nil {
			o.err = err
			return o
		}
		o.first = lw.first.Sub(o.start)
	} else {
		end = time.Now()
		o.first = ran.Sub(o.start) // Report.Results holds every record once Run returns
	}
	o.dur = end.Sub(o.start)

	var pool *sparc.PoolStats
	if tr != nil {
		if ps, ok := tr.finish(n, o.start, end); ok {
			pool = &ps
		}
	}
	if s.fleet != nil {
		d := subPool(s.fleet.poolStats(), before)
		pool = &d
	}
	o.poolChecked = pool != nil

	var log []byte
	if s.stream {
		log, err = os.ReadFile(s.logPath)
	} else {
		s.buf.Reset()
		_, err = prod.writeLog(&s.buf)
		log = s.buf.Bytes()
	}
	switch {
	case err != nil:
		o.err = err
	case prod.harness > 0:
		o.err = fmt.Errorf("%d harness errors", prod.harness)
	case s.issues > 0 && prod.issues != s.issues:
		o.err = fmt.Errorf("campaign reports %d issues, want %d", prod.issues, s.issues)
	default:
		o.err = in.check(log, pool)
	}
	if o.err == nil {
		o.tests = in.tests
	}
	return o
}

// writeLogFile writes the merged log to the campaign's log file, as
// xmfuzz -o does.
func (s *libSystem) writeLogFile(prod libProduct) (*firstWriter, error) {
	f, err := os.Create(s.logPath)
	if err != nil {
		return nil, err
	}
	lw := &firstWriter{w: f}
	_, err = prod.writeLog(lw)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && lw.first.IsZero() {
		err = errors.New("merged log is empty")
	}
	return lw, err
}

func (s *libSystem) shardDir() string {
	if !s.stream {
		return ""
	}
	return s.dir
}

func (s *libSystem) close() error {
	if s.fleet != nil {
		return s.fleet.close()
	}
	return nil
}

// firstWriter notes when the first byte of the log reached the caller.
type firstWriter struct {
	w     io.Writer
	first time.Time
}

func (f *firstWriter) Write(p []byte) (int, error) {
	if f.first.IsZero() {
		f.first = time.Now()
	}
	return f.w.Write(p)
}

// --- remote fleet ----------------------------------------------------------

// fleetWorkers is the loopback fleet's size; each worker executes one
// lease at a time on its own sim target, warm for the whole run.
const fleetWorkers = 2

type fleet struct {
	servers []*remote.Server
	sims    []*target.Sim
	lns     []net.Listener
	served  []chan error
	wire    wireStats
}

func startFleet(e *env) (system, error) {
	f := &fleet{}
	var addrs []string
	for range fleetWorkers {
		sim := target.NewSim(target.Config{})
		// Provision before serving, so reading the pool counters from
		// the client side is ordered after the pool exists; Serve's own
		// Provision call is then a no-op.
		if err := sim.Provision(1); err != nil {
			f.close()
			return nil, err
		}
		srv := &remote.Server{Target: sim, Workers: 1}
		if e.tg != nil {
			srv.Target = wrapTarget(sim, e.tg, "remote.server")
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		served := make(chan error, 1)
		var l net.Listener = ln
		if e.tg != nil {
			l = countingListener{Listener: ln, st: &f.wire}
		}
		go func() { served <- srv.Serve(l) }()
		f.servers, f.sims, f.lns, f.served = append(f.servers, srv), append(f.sims, sim), append(f.lns, ln), append(f.served, served)
		addrs = append(addrs, ln.Addr().String())
	}
	s := &libSystem{tg: e.tg, target: remote.Name + ":" + strings.Join(addrs, ","), stream: true, fleet: f,
		dir: filepath.Join(e.dir, "campaign"), logPath: filepath.Join(e.dir, "campaign.log")}
	return s, nil
}

// poolStats sums the workers' pool counters.
func (f *fleet) poolStats() sparc.PoolStats {
	var sum sparc.PoolStats
	for _, s := range f.sims {
		sum = addPool(sum, s.PoolStats())
	}
	return sum
}

// close drains every worker (handlers exit, which also ends the client
// connections campaigns left open) and waits for each Serve to return.
func (f *fleet) close() error {
	for i, srv := range f.servers {
		srv.Shutdown()
		f.lns[i].Close()
		<-f.served[i]
	}
	return nil
}

// --- daemon ----------------------------------------------------------------

type daemonSystem struct {
	tg      *tracing
	svc     *serve.Server
	srv     *http.Server
	served  chan error
	base    string
	clients []*http.Client
}

func startDaemon(e *env) (system, error) {
	cfg := serve.Config{DataDir: e.dir, MaxActive: 1, MaxPerClient: 4, Obs: obs.New()}
	if e.tg != nil {
		cfg.Store = tracedStore{Store: store.Local(), tg: e.tg, onCheckpoint: func(name string) {
			if id, ok := daemonCampaign(name); ok {
				e.tg.current.Store(id)
			}
		}}
		installSimOverride()
		daemonTracing.Store(e.tg)
	}
	svc, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemonSystem{tg: e.tg, svc: svc, served: make(chan error, 1), base: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: obs.ReadHeaderTimeout, IdleTimeout: obs.IdleTimeout}}
	go func() { d.served <- d.srv.Serve(ln) }()
	for range e.clients {
		// One connection per client: the POST, the event stream and the
		// log fetch reuse it in turn.
		d.clients = append(d.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	return d, nil
}

// daemonCampaign parses the campaign number out of a checkpoint name
// (<data>/c000012/checkpoint.jsonl).
func daemonCampaign(name string) (int64, bool) {
	base := filepath.Base(filepath.Dir(name))
	if !strings.HasPrefix(base, "c") {
		return 0, false
	}
	id, err := strconv.ParseInt(base[1:], 10, 64)
	return id, err == nil
}

// The daemon builds each campaign's target inside its engine, so a
// traced daemon run reaches it through the target registry: the sim
// entry is replaced once, before the daemon starts, by a factory that
// builds exactly what the built-in one does (target.NewSim with the
// engine's Config) and wraps it while daemonTracing is on.
var (
	simOverride   sync.Once
	daemonTracing atomic.Pointer[tracing]
)

func installSimOverride() {
	simOverride.Do(func() {
		target.Register(target.SimName,
			"simulated LEON3 + XtratuM-like kernel on the EagleEye testbed (pooled, the default)",
			func(arg string, cfg target.Config) (target.Target, error) {
				if arg != "" {
					return nil, fmt.Errorf("target: %q takes no argument", target.SimName)
				}
				sim := target.NewSim(cfg)
				if tg := daemonTracing.Load(); tg.on() != nil {
					return wrapTarget(sim, tg, "target"), nil
				}
				return sim, nil
			})
	})
}

func (d *daemonSystem) shardDir() string { return "" }

func (d *daemonSystem) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.svc.Shutdown(ctx)
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	<-d.served
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	if d.tg != nil {
		daemonTracing.Store(nil)
	}
	return err
}

// sseRecord is one record event, kept to rebuild the log.
type sseRecord struct {
	seq  int
	line []byte
}

func (d *daemonSystem) campaign(c int, _ int64, in *input) (o outcome) {
	hc := d.clients[c]
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	tr := d.tg.on()

	o.start = time.Now()
	id, dir, err := d.submit(ctx, hc, in)
	posted := time.Now()
	o.submit = posted.Sub(o.start)
	if err != nil {
		o.err = err
		return o
	}
	recs, end, err := d.follow(ctx, hc, id, &o)
	if err != nil {
		o.err = err
		return o
	}
	o.dur = end.Sub(o.start)

	var pool *sparc.PoolStats
	if tr != nil {
		num, _ := strconv.ParseInt(strings.TrimPrefix(id, "c"), 10, 64)
		tr.add("serve.submit", num, tr.at(o.start), tr.at(posted))
		if o.sawRunning {
			tr.add("serve.queue_wait", num, tr.at(posted), tr.at(o.start.Add(o.queueWait)))
		}
		if ps, ok := tr.finish(num, o.start, end); ok {
			pool = &ps
		}
	}
	o.poolChecked = pool != nil

	log, err := d.get(ctx, hc, "/v1/campaigns/"+id+"/log")
	if err != nil {
		o.err = err
		return o
	}
	slices.SortStableFunc(recs, func(a, b sseRecord) int { return a.seq - b.seq })
	var sse bytes.Buffer
	for _, r := range recs {
		sse.Write(r.line)
		sse.WriteByte('\n')
	}
	if !bytes.Equal(sse.Bytes(), log) {
		o.err = fmt.Errorf("campaign %s: SSE records differ from GET log (%d records vs %d lines)",
			id, len(recs), bytes.Count(log, []byte("\n")))
		return o
	}
	if o.err = in.check(log, pool); o.err == nil {
		o.tests = len(recs)
		// The daemon never reads a finished campaign's directory again;
		// removing it keeps a run's writes from piling up as page-cache
		// writeback that would slow later campaigns.
		o.err = os.RemoveAll(dir)
	}
	return o
}

// submit POSTs the campaign and returns its ID and directory; anything
// but 201 fails.
func (d *daemonSystem) submit(ctx context.Context, hc *http.Client, in *input) (id, dir string, err error) {
	body := fmt.Sprintf(`{"plan":%q,"seed":%d}`, in.plan, in.seed)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/campaigns", strings.NewReader(body))
	if err != nil {
		return "", "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", "", fmt.Errorf("POST /v1/campaigns: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var st serve.Status
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		return "", "", fmt.Errorf("POST /v1/campaigns: bad status %q", data)
	}
	return st.ID, st.Dir, nil
}

// follow reads the campaign's event stream to its end event, timing the
// running status and the first record, and returns the record events.
// A stream that ends in any state but done is a failure.
func (d *daemonSystem) follow(ctx context.Context, hc *http.Client, id string, o *outcome) ([]sseRecord, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return nil, time.Time{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, time.Time{}, fmt.Errorf("GET events of %s: %s", id, resp.Status)
	}
	var (
		recs    []sseRecord
		kind    string
		data    []byte
		running time.Time
	)
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		o.sseBytes += int64(len(line))
		if err != nil {
			return nil, time.Time{}, fmt.Errorf("event stream of %s ended without an end event: %v", id, err)
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = string(bytes.TrimSpace(line[len("event: "):]))
			continue
		case bytes.HasPrefix(line, []byte("data: ")):
			data = bytes.TrimSuffix(line[len("data: "):], []byte("\n"))
			continue
		case len(bytes.TrimSpace(line)) > 0:
			continue
		}
		now := time.Now()
		o.events++
		switch kind {
		case "status":
			var st serve.Status
			if json.Unmarshal(data, &st) == nil && st.State == serve.StateRunning && !o.sawRunning {
				o.sawRunning, running = true, now
				o.queueWait = now.Sub(o.start)
			}
		case "record":
			seq, ok := recordSeq(data)
			if !ok {
				return nil, time.Time{}, fmt.Errorf("campaign %s: record event without seq: %.80s", id, data)
			}
			if len(recs) == 0 {
				o.first = now.Sub(o.start)
				if o.sawRunning {
					o.runToFirst = now.Sub(running)
				}
			}
			recs = append(recs, sseRecord{seq: seq, line: data})
		case "end":
			var end struct{ State, Error string }
			if err := json.Unmarshal(data, &end); err != nil {
				return nil, time.Time{}, fmt.Errorf("campaign %s: bad end event %q", id, data)
			}
			// Drain the chunked terminator so the connection is reused.
			io.Copy(io.Discard, br)
			if end.State != string(serve.StateDone) {
				o.lagged = end.State == "lagged"
				return nil, time.Time{}, fmt.Errorf("campaign %s ended %s: %s", id, end.State, end.Error)
			}
			return recs, now, nil
		}
	}
}

// recordSeq extracts the "seq" field of a record line.
func recordSeq(line []byte) (int, bool) {
	i := bytes.Index(line, []byte(`"seq":`))
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(`"seq":`):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

func (d *daemonSystem) get(ctx context.Context, hc *http.Client, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, err
}
