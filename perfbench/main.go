// Command perfbench is the repository's benchmark. It drives the public
// entry points in their shipped default configuration — json codec, no
// batching, GOMAXPROCS workers, a fresh target per campaign — through a
// named closed-loop workload, checks every campaign's output against a
// reference, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload paper-inmem --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the run is split: an untraced half (Go runtime deltas, the tracing
// baseline) and a traced half whose spans — recorded by wrappers around
// the program's own seams, never inside it — give the per-layer metrics.
// A line of host and run facts precedes the result. The exit code is
// non-zero when any output is wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// setupRepeats is how often a run builds its system; setup_s is the
	// median, and the last build serves the timed window.
	setupRepeats = 5
	// warmups is the untimed campaigns per client that finish a setup.
	warmups = 2
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// facts are the host and run facts printed beside the metrics.
type facts struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    int     `json:"seconds"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Clients    int     `json:"clients"`
	Campaigns  int     `json:"campaigns"`
	Failed     int     `json:"failed"`
	FailRatio  float64 `json:"fail_ratio"`
	// Samples is the sample count behind each percentile.
	Samples map[string]int `json:"samples"`
	SetupS  []float64      `json:"setup_s"`
	// StealS is the CPU time a hypervisor took from the benchmark's
	// machine while the window ran (all CPUs, from /proc/stat): host
	// interference that slows every metric.
	StealS float64 `json:"steal_s"`
	// PoolChecked counts campaigns whose backend pool counters were
	// observed and matched their output.
	PoolChecked int         `json:"pool_checked"`
	Inputs      []inputFact `json:"inputs"`
	Errors      []string    `json:"errors,omitempty"`
}

// inputFact is a distinct input with the output every campaign of it
// must reproduce: the merged-log digest and the pool counts it implies.
type inputFact struct {
	Plan    string `json:"plan"`
	Seed    int64  `json:"seed"`
	Digest  string `json:"digest"`
	Tests   int    `json:"tests"`
	Crashes int    `json:"crashes"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (paper-inmem, paper-stream, daemon-sse, remote-fleet)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for campaign data (removed after the run) and span files")
	flag.Parse()
	o.trace = trace == 1

	res, f, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(map[string]facts{"facts": f})
	enc.Encode(res)
	if !res.Correct {
		for _, e := range f.Errors {
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", e)
		}
		os.Exit(1)
	}
}

func run(o options) (result, facts, error) {
	w, err := lookup(o.workload)
	if err != nil {
		return result{}, facts{}, err
	}
	if o.seconds < 1 {
		return result{}, facts{}, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, facts{}, err
	}
	base, err := os.MkdirTemp(o.dir, "run-"+w.name+"-")
	if err != nil {
		return result{}, facts{}, err
	}
	defer os.RemoveAll(base)

	inputs, err := w.inputs(o.seed, base)
	if err != nil {
		return result{}, facts{}, err
	}
	if !o.trace {
		for i := range inputs {
			inputs[i].log = nil // only traced replays read the reference logs
		}
	}
	var tg *tracing
	if o.trace {
		tg = &tracing{}
	}
	var next atomic.Int64
	sys, setups, err := setUp(w, inputs, base, tg, &next)
	if err != nil {
		return result{}, facts{}, err
	}
	window := time.Duration(o.seconds) * time.Second

	f := facts{
		Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Clients: w.clients, SetupS: setups, Samples: map[string]int{},
	}
	for _, in := range inputs {
		f.Inputs = append(f.Inputs, inputFact{Plan: in.plan, Seed: in.seed,
			Digest: fmt.Sprintf("%x", in.digest), Tests: in.tests, Crashes: in.crashes})
	}

	var (
		r      metricSet
		phases []phase
	)
	steal0 := stealSeconds()
	if !o.trace {
		ph := drive(sys, w.clients, inputs, &next, window)
		phases = []phase{ph}
		r = endToEndReport(ph, setups, f.Samples)
	} else {
		r, phases, err = tracedRun(o, w, sys, tg, inputs, &next, window, f.Samples)
	}
	f.StealS = stealSeconds() - steal0
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, facts{}, err
	}

	res := result{Metrics: r}
	for _, ph := range phases {
		for _, out := range ph.outs {
			res.Attempted++
			if out.poolChecked {
				f.PoolChecked++
			}
			if out.err != nil {
				res.Failed++
				if len(f.Errors) < 5 {
					f.Errors = append(f.Errors, out.err.Error())
				}
			}
		}
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	f.Campaigns, f.Failed = res.Attempted, res.Failed
	f.FailRatio = perUnit(float64(res.Failed), float64(res.Attempted))
	return res, f, nil
}

// setUp builds the workload's system setupRepeats times, each build
// finished by warm-up campaigns, and returns the last one with every
// build's duration.
func setUp(w *workload, inputs []input, base string, tg *tracing, next *atomic.Int64) (system, []float64, error) {
	var (
		sys    system
		setups []float64
	)
	for i := range setupRepeats {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, nil, fmt.Errorf("teardown: %w", err)
			}
			os.RemoveAll(filepath.Join(base, fmt.Sprintf("setup-%d", i-1)))
		}
		start := time.Now()
		dir := filepath.Join(base, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		s, err := w.start(&env{dir: dir, tg: tg, clients: w.clients})
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		sys = s
		for c := range w.clients {
			for range warmups {
				n := next.Add(1) - 1
				if out := sys.campaign(c, n, &inputs[n%int64(len(inputs))]); out.err != nil {
					sys.close()
					return nil, nil, fmt.Errorf("warm-up campaign: %w", out.err)
				}
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return sys, setups, nil
}

// phase is one closed-loop window.
type phase struct {
	outs []outcome
	// cpu is the process CPU time (user and system) the window used.
	cpu time.Duration
	// rss samples the resident set (MB) every rssInterval.
	rss []float64
}

// rssInterval paces the resident-set sampler of a window.
const rssInterval = 10 * time.Millisecond

// drive runs every client's closed loop until the window closes; a
// campaign in flight at the deadline finishes and counts.
func drive(sys system, clients int, inputs []input, next *atomic.Int64, window time.Duration) phase {
	cpu0 := processCPU()
	deadline := time.Now().Add(window)
	var (
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := next.Add(1) - 1
				out := sys.campaign(c, n, &inputs[n%int64(len(inputs))])
				mu.Lock()
				outs = append(outs, out)
				mu.Unlock()
			}
		}()
	}
	stop, sampled := make(chan struct{}), make(chan []float64)
	go func() {
		var rss []float64
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if mb, ok := residentMB(); ok {
					rss = append(rss, mb)
				}
			case <-stop:
				sampled <- rss
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	return phase{outs: outs, rss: <-sampled, cpu: processCPU() - cpu0}
}

// processCPU is the CPU time the process has used. The kernel does not
// charge time the hypervisor steals to the process, so per-test CPU cost
// holds steady where wall-clock figures move with host load.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// throughputBlocks splits a window for its throughput: the median of
// the blocks' rates is what a burst of host interference confined to
// one block cannot move.
const throughputBlocks = 5

// throughput is the median over throughputBlocks equal blocks of the
// window of the tests delivered by the campaigns starting in a block per
// second those campaigns were outstanding.
func (p phase) throughput() float64 {
	if len(p.outs) == 0 {
		return 0
	}
	first, last := p.outs[0].start, p.outs[0].start
	for _, o := range p.outs {
		if o.start.Before(first) {
			first = o.start
		}
		if o.start.After(last) {
			last = o.start
		}
	}
	width := last.Sub(first)/throughputBlocks + 1
	tests := make([]int, throughputBlocks)
	ivs := make([][][2]int64, throughputBlocks)
	for _, o := range p.outs {
		b := int(o.start.Sub(first) / width)
		s := o.start.UnixNano()
		tests[b] += o.tests
		ivs[b] = append(ivs[b], [2]int64{s, s + int64(o.dur)})
	}
	rates := make([]float64, throughputBlocks)
	for b := range rates {
		rates[b] = perUnit(float64(tests[b]), time.Duration(unionNs(ivs[b])).Seconds())
	}
	return quantile(rates, 0.5)
}

// ok returns the campaigns that passed every check.
func (p phase) ok() []outcome {
	var out []outcome
	for _, o := range p.outs {
		if o.err == nil {
			out = append(out, o)
		}
	}
	return out
}

func (p phase) tests() (n int) {
	for _, o := range p.outs {
		n += o.tests
	}
	return n
}

// durations collects one timing of the passing campaigns (those for
// which keep reports true).
func (p phase) durations(get func(outcome) time.Duration, keep func(outcome) bool) []time.Duration {
	var ds []time.Duration
	for _, o := range p.ok() {
		if keep == nil || keep(o) {
			ds = append(ds, get(o))
		}
	}
	return ds
}

func endToEndReport(ph phase, setups []float64, samples map[string]int) metricSet {
	r := metricSet{}
	camp := ms(ph.durations(func(o outcome) time.Duration { return o.dur }, nil))
	first := ms(ph.durations(func(o outcome) time.Duration { return o.first }, nil))
	r.set(endToEnd, "tests_per_s", ph.throughput())
	r.set(endToEnd, "campaign_ms_p50", quantile(camp, 0.5))
	r.set(endToEnd, "campaign_ms_p90", quantile(camp, 0.9))
	r.set(endToEnd, "first_record_ms_p50", quantile(first, 0.5))
	r.set(endToEnd, "first_record_ms_p90", quantile(first, 0.9))
	r.set(endToEnd, "setup_s", quantile(setups, 0.5))
	r.set(endToEnd, "rss_p95_mb", quantile(ph.rss, 0.95))
	r.set(endToEnd, "cpu_us_per_test", perUnit(float64(ph.cpu)/1e3, float64(ph.tests())))
	samples["campaign_ms"], samples["first_record_ms"], samples["setup_s"], samples["rss_mb"] =
		len(camp), len(first), len(setups), len(ph.rss)
	return r
}

// residentMB reads the process's resident set. The window's high
// percentile of these samples stands for its peak: the single highest
// reading depends on where garbage collections happen to fall.
func residentMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), true
}

// stealSeconds is the machine's cumulative steal time (0 where
// /proc/stat does not report it).
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

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// --- Go runtime deltas ---------------------------------------------------

type goSample struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
	goroutines      int
}

// readGo samples the runtime once the goroutine count has settled, so
// goroutines still winding down from the last campaign do not count as
// leaked.
func readGo() goSample {
	n := runtime.NumGoroutine()
	for stable, tries := 0, 0; stable < 3 && tries < 100; tries++ {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	return goSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: cpu[0].Value.Float64(), totalCPU: cpu[1].Value.Float64(), goroutines: n}
}
