package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"xmrobust/internal/analysis"
	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/eagleeye"
	"xmrobust/internal/sparc"
	"xmrobust/internal/xm"
)

const (
	// replayRounds repeats each replay; the median round counts.
	replayRounds = 5
	// probeRounds is the sample count of the testbed construction and
	// major-frame probes.
	probeRounds = 200
)

// tracedRun splits the window: an untraced half gives the Go runtime
// deltas and the untraced campaign time, a traced half the spans. The
// replays and probes run after both, outside the window.
func tracedRun(o options, w *workload, sys system, tg *tracing, inputs []input, next *atomic.Int64,
	window time.Duration, samples map[string]int) (metricSet, []phase, error) {
	half := window / 2
	g0 := readGo()
	phA := drive(sys, w.clients, inputs, next, half)
	g1 := readGo()

	fl := fleetOf(sys)
	var (
		pool0           sparc.PoolStats
		frames0, bytes0 int64
	)
	if fl != nil {
		pool0, frames0, bytes0 = fl.poolStats(), fl.wire.frames(), fl.wire.bytes()
	}
	tr := newTracer()
	tg.p.Store(tr)
	phB := drive(sys, w.clients, inputs, next, half)
	tg.p.Store(nil)

	r := metricSet{}
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	testsB := float64(phB.tests())
	us := func(name string) float64 { return perUnit(float64(tr.busy[name])/1e3, testsB) }
	perTest := func(n int64) float64 { return perUnit(float64(n), testsB) }

	set("target.acquire_us_per_test", us("target.acquire"))
	set("target.execute_us_per_test", us("target.execute"))
	set("target.release_us_per_test", us("target.release"))
	set("target.slots_per_test", perTest(tr.calls["target.acquire"]))

	pool, poolCampaigns := tr.pool, float64(tr.poolCampaigns)
	if fl != nil {
		// The workers' pools live for the whole run: their growth over
		// the traced half is what the half's campaigns cost them.
		pool, poolCampaigns = subPool(fl.poolStats(), pool0), float64(len(phB.ok()))
	}
	set("sparc.machines_built_per_campaign", perUnit(float64(pool.Allocated), poolCampaigns))
	set("sparc.pool_reuse_ratio", perUnit(float64(pool.Reused), float64(pool.Allocated+pool.Reused)))
	set("sparc.pool_discards_per_campaign", perUnit(float64(pool.Discarded), poolCampaigns))

	newSystem, frame, err := probeSystem()
	if err != nil {
		return nil, nil, err
	}
	set("eagleeye.new_system_us", newSystem)
	set("xm.major_frame_us", frame)

	rp, err := replay(w, inputs, sys.shardDir())
	if err != nil {
		return nil, nil, err
	}
	set("campaign.lease_issue_us_per_test", rp.leaseUs)
	set("campaign.to_record_us_per_test", rp.toRecordUs)
	set("campaign.encode_us_per_test", rp.encodeUs)
	set("campaign.scan_ms_per_campaign", rp.scanMs)
	set("campaign.merge_ms_per_campaign", rp.mergeMs)
	set("analysis.classify_us_per_test", rp.classifyUs)

	set("store.shard_write_us_per_test", us("store.shard_write"))
	set("store.shard_writes_per_test", perTest(tr.calls["store.shard_write"]))
	set("store.shard_bytes_per_test", perTest(tr.counts["store.shard_write.bytes"]))
	set("store.checkpoint_append_us_per_test", us("store.checkpoint_append"))
	set("store.checkpoint_writes_per_test", perTest(tr.calls["store.checkpoint_append"]))

	streamed := func(o outcome) bool { return o.events > 0 }
	running := func(o outcome) bool { return o.sawRunning }
	runToFirst := func(o outcome) bool { return o.sawRunning && o.runToFirst > 0 }
	submit := ms(phB.durations(func(o outcome) time.Duration { return o.submit }, streamed))
	queue := ms(phB.durations(func(o outcome) time.Duration { return o.queueWait }, running))
	toFirst := ms(phB.durations(func(o outcome) time.Duration { return o.runToFirst }, runToFirst))
	var events, sseBytes, lagged int64
	for _, o := range phB.outs {
		events += o.events
		sseBytes += o.sseBytes
		if o.lagged {
			lagged++
		}
	}
	set("serve.submit_ms_p50", quantile(submit, 0.5))
	set("serve.queue_wait_ms_p50", quantile(queue, 0.5))
	set("serve.running_to_first_record_ms_p50", quantile(toFirst, 0.5))
	set("serve.sse_events_per_test", perTest(events))
	set("serve.sse_bytes_per_test", perTest(sseBytes))
	set("serve.lagged_streams", float64(lagged))
	samples["serve.submit_ms"], samples["serve.queue_wait_ms"], samples["serve.running_to_first_record_ms"] =
		len(submit), len(queue), len(toFirst)

	// On the fleet the client-side target is the remote backend itself.
	var client, server float64
	var frames, wireBytes, openConns int64
	if fl != nil {
		client, server = us("target.execute"), us("remote.server.execute")
		frames, wireBytes, openConns = fl.wire.frames()-frames0, fl.wire.bytes()-bytes0, fl.wire.open.Load()
	}
	set("remote.client_exec_us_per_test", client)
	set("remote.server_exec_us_per_test", server)
	set("remote.wire_us_per_test", client-server)
	set("remote.frames_per_test", perTest(frames))
	set("remote.wire_bytes_per_test", perTest(wireBytes))
	set("remote.server_execs_per_test", perTest(tr.calls["remote.server.execute"]))
	set("remote.open_conns_end", float64(openConns))

	testsA := float64(phA.tests())
	set("go.allocs_per_test", perUnit(float64(g1.mallocs-g0.mallocs), testsA))
	set("go.alloc_bytes_per_test", perUnit(float64(g1.bytes-g0.bytes), testsA))
	set("go.gc_cpu_fraction", perUnit(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU))
	set("go.goroutines_leaked", float64(g1.goroutines-g0.goroutines))

	campA := ms(phA.durations(func(o outcome) time.Duration { return o.dur }, nil))
	campB := ms(phB.durations(func(o outcome) time.Duration { return o.dur }, nil))
	set("trace.overhead_pct", 100*(perUnit(quantile(campB, 0.5), quantile(campA, 0.5))-1))
	set("trace.unattributed_pct", 100*perUnit(float64(tr.selfNs), float64(tr.rootNs)))
	samples["campaign_ms_untraced"], samples["campaign_ms_traced"] = len(campA), len(campB)

	dir := filepath.Join(o.dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := tr.writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))); err != nil {
		return nil, nil, err
	}
	return r, []phase{phA, phB}, nil
}

// fleetOf returns the workers behind a remote workload.
func fleetOf(sys system) *fleet {
	if ls, ok := sys.(*libSystem); ok {
		return ls.fleet
	}
	return nil
}

// probeSystem times eagleeye.NewSystem on a power-on machine and one
// major frame of the booted testbed, returning the medians in µs.
func probeSystem() (newSystemUs, frameUs float64, err error) {
	pool := sparc.NewSnapshotPool(sparc.DefaultConfig(), 1)
	var build, frame []float64
	for range probeRounds {
		m := pool.Get()
		t0 := time.Now()
		k, err := eagleeye.NewSystem(xm.WithFaults(xm.LegacyFaults()), xm.WithMachine(m))
		t1 := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("probe: %w", err)
		}
		if err := k.RunMajorFrames(1); err != nil {
			return 0, 0, fmt.Errorf("probe: %w", err)
		}
		t2 := time.Now()
		pool.Put(m)
		build = append(build, float64(t1.Sub(t0))/1e3)
		frame = append(frame, float64(t2.Sub(t1))/1e3)
	}
	return quantile(build, 0.5), quantile(frame, 0.5), nil
}

// replays are per-layer costs measured by calling a layer's public
// functions directly over the run's own outputs.
type replays struct {
	leaseUs, toRecordUs, encodeUs, classifyUs float64
	scanMs, mergeMs                           float64
}

// replay times, over every distinct input's log (byte-identical to the
// run's campaigns, which were checked against it): lease issue by a
// coordinator at the workload's batch size of 1; ToRecord and the json
// codec's AppendEncode where the workload encodes records; Classifier
// and Clusterer where it classifies; and ScanShards and MergeShards on
// the last campaign's shard directory where the workload re-scans and
// merges one.
func replay(w *workload, inputs []input, dir string) (replays, error) {
	var rp replays
	codec, err := campaign.NewCodec("")
	if err != nil {
		return rp, err
	}
	raw, err := campaign.NewCodec("raw")
	if err != nil {
		return rp, err
	}
	var (
		tests                  int
		lease, toRec, enc, cls time.Duration
		encErr                 error
	)
	for _, in := range inputs {
		results, seqs, err := decodeLog(raw, in.log)
		if err != nil {
			return rp, err
		}
		tests += len(results)
		lease += medianOf(func() {
			c := campaign.NewCoordinator(in.tests, nil, 1, 0, 0)
			for {
				l, ok := c.Next()
				if !ok {
					return
				}
				c.Complete(l.ID)
			}
		})
		if w.encodes {
			recs := make([]campaign.JSONRecord, len(results))
			toRec += medianOf(func() {
				for i, r := range results {
					recs[i] = campaign.ToRecord(seqs[i], r)
				}
			})
			var buf []byte
			enc += medianOf(func() {
				for i := range recs {
					if buf, err = codec.AppendEncode(buf[:0], &recs[i]); err != nil && encErr == nil {
						encErr = err
					}
				}
			})
		}
		if w.classifies {
			cls += medianOf(func() {
				c, cl := analysis.NewClassifier(analysis.NewOracle(xm.LegacyFaults())), analysis.NewClusterer()
				for i, r := range results {
					cl.Add(seqs[i], c.Add(r))
				}
			})
		}
	}
	if encErr != nil {
		return rp, fmt.Errorf("replay encode: %w", encErr)
	}
	usPerTest := func(d time.Duration) float64 { return perUnit(float64(d)/1e3, float64(tests)) }
	rp.leaseUs, rp.toRecordUs, rp.encodeUs, rp.classifyUs = usPerTest(lease), usPerTest(toRec), usPerTest(enc), usPerTest(cls)

	if w.scans && dir != "" {
		var scanErr, mergeErr error
		scan := medianOf(func() {
			scanErr = campaign.ScanShards(dir, func(campaign.JSONRecord) error { return nil })
		})
		merge := medianOf(func() { _, mergeErr = campaign.MergeShards(dir, io.Discard) })
		if scanErr != nil || mergeErr != nil {
			return rp, fmt.Errorf("replay scan/merge: %v, %v", scanErr, mergeErr)
		}
		rp.scanMs, rp.mergeMs = float64(scan)/1e6, float64(merge)/1e6
	}
	return rp, nil
}

// medianOf runs fn replayRounds times and returns the median duration.
func medianOf(fn func()) time.Duration {
	ds := make([]float64, replayRounds)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(quantile(ds, 0.5))
}

// decodeLog turns a merged log back into execution results and their
// campaign positions.
func decodeLog(codec campaign.Codec, log []byte) ([]campaign.Result, []int, error) {
	header := apispec.Default()
	var (
		results []campaign.Result
		seqs    []int
	)
	for len(log) > 0 {
		i := bytes.IndexByte(log, '\n')
		if i < 0 {
			return nil, nil, fmt.Errorf("replay: unterminated record")
		}
		var rec campaign.JSONRecord
		if err := codec.Decode(log[:i+1], &rec); err != nil {
			return nil, nil, fmt.Errorf("replay: %w", err)
		}
		log = log[i+1:]
		r, err := rec.Result(header)
		if err != nil {
			return nil, nil, fmt.Errorf("replay: %w", err)
		}
		results, seqs = append(results, r), append(seqs, rec.Seq)
	}
	return results, seqs, nil
}
