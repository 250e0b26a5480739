// Xmbench measures the campaign engine's steady-state throughput on the
// sim backend and the per-record codec cost, and records the measurement
// as a BENCH JSON file — the perf-trajectory format the repository
// commits (BENCH_0.json is the pre-snapshot-pool baseline) and CI gates.
//
// The protocol: one shared sim target (warm machine pool and parked
// testbed kernels, exactly a long campaign's steady state) executes the
// same fixed-seed plan for -reps repetitions through the streaming
// engine with sharded logs, after one untimed warm-up repetition.
// Encode cost is measured separately by serialising one representative
// executed record in a tight loop.
//
//	go run ./cmd/xmbench -o BENCH_1.json
//	go run ./cmd/xmbench -baseline BENCH_1.json -gate 15
//
// With -baseline, the run compares its tests/sec and allocs/test against
// the baseline file and exits non-zero when either regresses past the
// gate percentage — allocs/test is machine-stable, tests/sec assumes the
// baseline was measured on comparable hardware. The comparison refuses a
// baseline measured at a different workers/batch configuration: those
// knobs change what is being measured, not how fast it is.
//
// With -sweep, one measurement per workers count runs instead (plus a
// loopback remote: point over -remote-workers in-process xmworker-style
// servers, when non-zero), and the output is the schema-2 sweep file
// (BENCH_2.json) recording the multi-worker scaling trajectory. Each
// point keeps its own shared target, plan and shard directory, but the
// points' repetitions run in interleaved rounds — one untimed warm-up
// round, then -reps timed rounds, each running every point once — so
// load from elsewhere on the host that drifts over the sweep lands on
// every point alike instead of on the ones that ran while it lasted.
// The file records the CPU steal time the host reported over the timed
// rounds (steal_s, from /proc/stat; 0 where it is not reported), and
// each point its process CPU seconds over its timed repetitions (cpu_s,
// user plus system time from getrusage), which the run prints beside
// the point as CPU÷wall: on two CPUs a workers=8 point reads about 2
// when the process ran on both and about 1 when it ran on one:
//
//	go run ./cmd/xmbench -sweep 1,2,4,8 -o BENCH_2.json -min-scale 3
//
// -min-scale gates the sweep: aggregate tests/sec at the largest workers
// count must be at least min(min-scale, 0.6·min(workers, NumCPU)) times
// the workers=1 point. The CPU clamp keeps the gate honest on small CI
// machines — a 1-CPU container cannot exhibit parallel speedup, and
// pretending otherwise would make the gate a hardware lottery.
//
// With -sweep and -baseline, the remote point's allocs/test is gated
// against the baseline sweep file's remote point at -gate percent, so a
// wire-path regression fails the sweep (BENCH_3.json is the committed
// baseline):
//
//	go run ./cmd/xmbench -sweep 1,2,4,8 -baseline BENCH_3.json -gate 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xmrobust/internal/campaign"
	"xmrobust/internal/obs"
	"xmrobust/internal/remote"
	"xmrobust/internal/target"
)

// Bench is one recorded measurement — the schema of BENCH_*.json and of
// each point in a schema-2 sweep file.
type Bench struct {
	Schema        int     `json:"schema,omitempty"`
	Plan          string  `json:"plan,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Reps          int     `json:"reps,omitempty"`
	Batch         int     `json:"batch"`
	Workers       int     `json:"workers"`
	Target        string  `json:"target,omitempty"`
	Tests         int     `json:"tests"`
	TestsPerSec   float64 `json:"tests_per_sec"`
	AllocsPerTest float64 `json:"allocs_per_test"`
	BytesPerTest  float64 `json:"bytes_per_test"`
	EncodeNsRaw   float64 `json:"encode_ns_raw,omitempty"`
	CPUS          float64 `json:"cpu_s,omitempty"`
	Note          string  `json:"note,omitempty"`
}

// Sweep is the schema-2 multi-worker scaling record (BENCH_2.json): the
// shared protocol knobs, the host's parallelism, and one point per
// configuration measured.
type Sweep struct {
	Schema int     `json:"schema"`
	Plan   string  `json:"plan"`
	Seed   int64   `json:"seed"`
	Reps   int     `json:"reps"`
	Batch  int     `json:"batch"`
	CPUs   int     `json:"cpus"`
	StealS float64 `json:"steal_s"`
	Points []Bench `json:"points"`
	Note   string  `json:"note,omitempty"`
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "xmbench:", err)
	os.Exit(1)
}

func main() {
	var (
		n         = flag.Int("n", 2000, "tests per repetition (rand:N plan)")
		reps      = flag.Int("reps", 20, "timed repetitions (one extra warm-up rep runs untimed)")
		batch     = flag.Int("batch", 16, "tests leased per worker slot (0 = the engine default, 16; 1 = one test per lease)")
		workers   = flag.Int("workers", 1, "engine workers (1 = stable per-test numbers)")
		seed      = flag.Int64("seed", 1, "plan seed")
		out       = flag.String("o", "", "write the measurement JSON to this file (default stdout)")
		baseline  = flag.String("baseline", "", "compare against this BENCH_*.json and gate regressions (with -sweep: the remote point's allocs/test)")
		gate      = flag.Float64("gate", 15, "regression gate in percent for -baseline")
		note      = flag.String("note", "", "free-form note recorded in the measurement")
		sweepList = flag.String("sweep", "", "comma-separated workers counts: measure each and emit a schema-2 sweep file")
		remoteN   = flag.Int("remote-workers", 2, "loopback remote servers for the sweep's remote: point (0 = skip)")
		minScale  = flag.Float64("min-scale", 0, "sweep gate: required tests/sec ratio of the largest workers point over workers=1 (CPU-clamped, 0 = off)")
		opsAddr   = flag.String("ops", "", "serve /metrics, /healthz, /progress and /debug/pprof on this address while measuring (perturbs the measurement)")
	)
	flag.Parse()

	var o *obs.Obs
	if *opsAddr != "" {
		o = obs.New()
		srv, err := obs.ListenAndServe(*opsAddr, o)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "xmbench: ops on http://%s/metrics\n", srv.Addr())
	}

	if *sweepList != "" {
		s := sweep(*n, *seed, *reps, *batch, *sweepList, *remoteN, *minScale, *out, *note, o)
		if *baseline != "" {
			if err := gateRemote(s, *baseline, *gate); err != nil {
				fail(err)
			}
		}
		return
	}

	bs, _, err := measure([]point{{
		plan: fmt.Sprintf("rand:%d", *n), seed: *seed,
		batch: *batch, workers: *workers, obs: o,
	}}, *reps)
	if err != nil {
		fail(err)
	}
	b := bs[0]
	b.Schema = 1
	b.Note = *note
	b.EncodeNsRaw = encodeCost()

	fmt.Fprintf(os.Stderr,
		"xmbench: %d tests — %.0f tests/sec, %.0f allocs/test, %.0f bytes/test, encode %.0fns\n",
		b.Tests, b.TestsPerSec, b.AllocsPerTest, b.BytesPerTest, b.EncodeNsRaw)

	emit(b, *out)
	if *baseline != "" {
		if err := compare(b, *baseline, *gate); err != nil {
			fail(err)
		}
	}
}

// point is one measurement configuration.
type point struct {
	plan    string
	seed    int64
	batch   int
	workers int
	// targetSpec selects a non-default execution backend ("" = one
	// shared sim instance, the steady-state protocol).
	targetSpec string
	// obs, when non-nil, instruments the measured engine (the -ops
	// server's data source; nil keeps the measurement unperturbed).
	obs *obs.Obs
}

// measure runs each point's fixed-seed plan through the streaming
// engine: one untimed warm-up round, then reps timed rounds, each
// running every point once in turn. Each point times, counts
// allocations and takes the process's CPU time over its own
// repetitions only. It returns the points' measurements and the CPU
// steal seconds the host reported over the timed rounds.
func measure(points []point, reps int) ([]Bench, float64, error) {
	bs := make([]Bench, len(points))
	runs := make([]func() error, len(points))
	for i, p := range points {
		bs[i] = Bench{
			Plan: p.plan, Seed: p.seed, Reps: reps, Batch: p.batch,
			Workers: p.workers, Target: p.targetSpec,
		}
		opts := campaign.Options{Plan: p.plan, Seed: p.seed, Workers: p.workers}
		if p.targetSpec != "" {
			opts.Target = p.targetSpec
		}
		plan, ropts, err := campaign.BuildPlan(opts)
		if err != nil {
			return nil, 0, err
		}
		dir, err := os.MkdirTemp("", "xmbench")
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
		eo := campaign.EngineOptions{
			Options:   ropts,
			BatchSize: p.batch,
			ShardDir:  dir,
			Obs:       p.obs,
		}
		if p.targetSpec == "" {
			// One shared target across repetitions: the warm pool and
			// parked kernels make every timed rep a steady-state sample.
			// Remote points skip this — their steady state lives in the
			// worker servers, which persist across repetitions anyway.
			eo.TargetInstance = target.NewSim(target.Config{})
		}
		runs[i] = func() error { _, err := campaign.StreamPlan(plan, eo, nil); return err }
		bs[i].Tests = plan.Len() * reps
	}
	for _, run := range runs { // warm-up round, untimed
		if err := run(); err != nil {
			return nil, 0, err
		}
	}
	walls := make([]time.Duration, len(points))
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	steal0 := stealSeconds()
	for r := 0; r < reps; r++ {
		for i, run := range runs {
			runtime.ReadMemStats(&ms0)
			cpu0 := cpuSeconds()
			start := time.Now()
			if err := run(); err != nil {
				return nil, 0, err
			}
			walls[i] += time.Since(start)
			bs[i].CPUS += cpuSeconds() - cpu0
			runtime.ReadMemStats(&ms1)
			bs[i].AllocsPerTest += float64(ms1.Mallocs - ms0.Mallocs)
			bs[i].BytesPerTest += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		}
	}
	steal := stealSeconds() - steal0
	for i := range bs {
		bs[i].TestsPerSec = float64(bs[i].Tests) / walls[i].Seconds()
		bs[i].AllocsPerTest /= float64(bs[i].Tests)
		bs[i].BytesPerTest /= float64(bs[i].Tests)
	}
	return bs, steal, nil
}

// stealSeconds is the host's cumulative CPU steal time, summed over its
// CPUs, from the cpu line of /proc/stat (0 where it is not reported).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	jiffies, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return jiffies / 100 // USER_HZ
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// sweep measures one point per workers count, plus a loopback remote:
// point, in interleaved rounds, emits the schema-2 scaling file, and
// returns it.
func sweep(n int, seed int64, reps, batch int, list string, remoteN int, minScale float64, out, note string, o *obs.Obs) Sweep {
	var counts []int
	for _, f := range strings.Split(list, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			fail(fmt.Errorf("-sweep: bad workers count %q", f))
		}
		counts = append(counts, w)
	}
	s := Sweep{
		Schema: 2, Plan: fmt.Sprintf("rand:%d", n), Seed: seed,
		Reps: reps, Batch: batch,
		CPUs: runtime.NumCPU(), Note: note,
	}
	var points []point
	for _, w := range counts {
		points = append(points, point{plan: s.Plan, seed: seed, batch: batch, workers: w, obs: o})
	}
	if remoteN > 0 {
		p, stop, err := remotePoint(s.Plan, seed, batch, remoteN)
		if err != nil {
			fail(err)
		}
		defer stop()
		points = append(points, p)
	}
	bs, steal, err := measure(points, reps)
	if err != nil {
		fail(err)
	}
	for i, b := range bs {
		cpuPerWall := b.CPUS * b.TestsPerSec / float64(b.Tests)
		if points[i].targetSpec != "" {
			// A stable label, not the ephemeral ports.
			b.Target = fmt.Sprintf("remote:loopback×%d", remoteN)
			fmt.Fprintf(os.Stderr, "xmbench: %s workers=%d — %.0f tests/sec, %.0f allocs/test, CPU÷wall %.2f (wire round-trip included)\n",
				b.Target, b.Workers, b.TestsPerSec, b.AllocsPerTest, cpuPerWall)
		} else {
			fmt.Fprintf(os.Stderr, "xmbench: workers=%d — %.0f tests/sec, %.0f allocs/test, CPU÷wall %.2f\n",
				b.Workers, b.TestsPerSec, b.AllocsPerTest, cpuPerWall)
		}
		s.Points = append(s.Points, b)
	}
	s.StealS = steal
	fmt.Fprintf(os.Stderr, "xmbench: the host reported %.2f s of CPU steal over the timed rounds\n", steal)

	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(out, buf, 0o644); err != nil {
		fail(err)
	}

	if minScale > 0 {
		if err := gateScale(s, minScale); err != nil {
			fail(err)
		}
	}
	return s
}

// remoteOf returns a sweep's remote: point, or nil.
func remoteOf(s Sweep) *Bench {
	for i := range s.Points {
		if strings.HasPrefix(s.Points[i].Target, "remote:") {
			return &s.Points[i]
		}
	}
	return nil
}

// gateRemote fails the sweep when its remote point's allocs/test rose
// more than gatePct above the baseline sweep's remote point — the
// wire path's machine-stable cost. Tests/sec is reported, not gated: a
// loopback fleet's throughput depends on the host. A baseline measured
// at a different plan, batch or fleet size is refused.
func gateRemote(cur Sweep, path string, gatePct float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Sweep
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	b, c := remoteOf(base), remoteOf(cur)
	if b == nil || c == nil {
		return fmt.Errorf("-baseline %s: both sweeps need a remote point (-remote-workers > 0)", path)
	}
	if b.Plan != c.Plan || b.Batch != c.Batch || b.Target != c.Target {
		return fmt.Errorf(
			"%s measured its remote point as %s plan=%s batch=%d, this run as %s plan=%s batch=%d — rerun with matching flags (or remeasure the baseline)",
			path, b.Target, b.Plan, b.Batch, c.Target, c.Plan, c.Batch)
	}
	allocs := 100 * (c.AllocsPerTest - b.AllocsPerTest) / b.AllocsPerTest
	fmt.Fprintf(os.Stderr, "xmbench: remote point vs %s: allocs/test %+.1f%% (%.1f -> %.1f), tests/sec %.0f -> %.0f, gate +%.0f%%\n",
		path, allocs, b.AllocsPerTest, c.AllocsPerTest, b.TestsPerSec, c.TestsPerSec, gatePct)
	if allocs > gatePct {
		return fmt.Errorf("remote point allocations regressed %.1f%% past the %.0f%% gate", allocs, gatePct)
	}
	return nil
}

// remotePoint starts the sweep's remote: leg — remoteN in-process
// worker servers on loopback TCP, each wrapping its own sim target — and
// returns the point that fans leases out over them through the remote
// backend, with the function that stops the servers.
func remotePoint(plan string, seed int64, batch, remoteN int) (point, func(), error) {
	var (
		addrs   []string
		servers []*remote.Server
	)
	stop := func() {
		for _, srv := range servers {
			srv.Close()
		}
	}
	for i := 0; i < remoteN; i++ {
		srv := &remote.Server{Target: target.NewSim(target.Config{}), Workers: 1}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			stop()
			return point{}, nil, err
		}
		servers, addrs = append(servers, srv), append(addrs, addr)
	}
	return point{
		plan: plan, seed: seed, batch: batch,
		workers: remoteN, targetSpec: "remote:" + strings.Join(addrs, ","),
	}, stop, nil
}

// gateScale fails the sweep when the largest workers point does not beat
// workers=1 by the required ratio. The requirement is clamped to
// 0.6·min(workers, NumCPU): a host with fewer cores than workers
// cannot parallelise past its cores, and the 0.6 headroom absorbs
// coordination overhead. On a single-CPU host the clamp degrades the
// gate to "multi-worker must not collapse" (≥0.6×), which is the
// strongest honest statement such a machine can make.
func gateScale(s Sweep, minScale float64) error {
	var base, top *Bench
	for i := range s.Points {
		p := &s.Points[i]
		if p.Target != "" {
			continue // the remote point measures the wire, not scaling
		}
		if p.Workers == 1 {
			base = p
		}
		if top == nil || p.Workers > top.Workers {
			top = p
		}
	}
	if base == nil || top == nil || top.Workers == 1 {
		return fmt.Errorf("-min-scale needs a workers=1 point and a workers>1 point in the sweep")
	}
	required := minScale
	if clamp := 0.6 * float64(min(top.Workers, s.CPUs)); clamp < required {
		required = clamp
	}
	scale := top.TestsPerSec / base.TestsPerSec
	fmt.Fprintf(os.Stderr, "xmbench: scaling ×%.2f at workers=%d (vs workers=1), required ×%.2f on %d CPUs\n",
		scale, top.Workers, required, s.CPUs)
	if scale < required {
		return fmt.Errorf("scaling ×%.2f at workers=%d below the required ×%.2f", scale, top.Workers, required)
	}
	return nil
}

// emit writes one measurement to the output file (or stdout).
func emit(b Bench, out string) {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(out, buf, 0o644); err != nil {
		fail(err)
	}
}

// encodeCost times one representative record through the codec.
func encodeCost() float64 {
	var res campaign.Result
	// A single executed test gives a record with realistic field content
	// (resolved dataset values, return codes, kernel and partition state).
	plan, ropts, err := campaign.BuildPlan(campaign.Options{Plan: "rand:1", Seed: 1})
	if err != nil {
		fail(err)
	}
	if _, err := campaign.StreamPlan(plan, campaign.EngineOptions{Options: ropts},
		func(_ int, r campaign.Result, _ []byte) { res = r }); err != nil {
		fail(err)
	}
	rec := campaign.ToRecord(0, res)
	const iters = 100000
	buf := make([]byte, 0, 4096)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if buf, err = (campaign.Codec{}).AppendEncode(buf[:0], &rec); err != nil {
			fail(err)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

// compare gates the measurement against a committed baseline: tests/sec
// may not drop, and allocs/test may not rise, past the gate percentage.
// Improvements always pass. A baseline measured at a different
// workers/batch configuration is refused outright — the knobs change
// what is measured, and a silent apples-to-oranges comparison would let
// a real regression hide behind a configuration change.
func compare(cur Bench, path string, gatePct float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Bench
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if base.Workers != cur.Workers || base.Batch != cur.Batch {
		return fmt.Errorf(
			"%s was measured at workers=%d batch=%d, this run at workers=%d batch=%d — rerun with matching flags (or remeasure the baseline)",
			path, base.Workers, base.Batch, cur.Workers, cur.Batch)
	}
	speed := 100 * (cur.TestsPerSec - base.TestsPerSec) / base.TestsPerSec
	allocs := 100 * (cur.AllocsPerTest - base.AllocsPerTest) / base.AllocsPerTest
	fmt.Fprintf(os.Stderr, "xmbench: vs %s: tests/sec %+.1f%% (%.0f -> %.0f), allocs/test %+.1f%% (%.1f -> %.1f), gate ±%.0f%%\n",
		path, speed, base.TestsPerSec, cur.TestsPerSec, allocs, base.AllocsPerTest, cur.AllocsPerTest, gatePct)
	if speed < -gatePct {
		return fmt.Errorf("throughput regressed %.1f%% past the %.0f%% gate", -speed, gatePct)
	}
	if allocs > gatePct {
		return fmt.Errorf("allocations regressed %.1f%% past the %.0f%% gate", allocs, gatePct)
	}
	return nil
}
