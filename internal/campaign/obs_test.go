package campaign

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"xmrobust/internal/obs"
	"xmrobust/internal/store"
	"xmrobust/internal/target"
)

// obsRun streams a fixed-seed plan into an in-memory store and returns
// the merged log bytes — the byte-identity probe of the instrumented
// engine.
func obsRun(t testing.TB, o *obs.Obs) ([]byte, *store.Mem) {
	t.Helper()
	plan, ropts, err := BuildPlan(Options{Plan: "rand:60", Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMem()
	eo := EngineOptions{Options: ropts, ShardDir: "shards", Store: st, Obs: o}
	if _, err := StreamPlan(plan, eo, nil); err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if _, err := MergeShardsIn(st, "shards", &merged); err != nil {
		t.Fatal(err)
	}
	return merged.Bytes(), st
}

// TestStreamPlanObs wires a full observability handle through a
// checkpointed campaign and checks every layer reported: engine
// counters and progress, coordinator lease metrics, the trace-event
// stream in the shard directory — and that none of it changed a single
// byte of the campaign log.
func TestStreamPlanObs(t *testing.T) {
	plain, _ := obsRun(t, nil)

	o := obs.New()
	instrumented, st := obsRun(t, o)
	if !bytes.Equal(plain, instrumented) {
		t.Error("instrumented campaign log differs from the uninstrumented one")
	}

	em := obs.NewEngineMetrics(o.Registry())
	if got := em.Executed.Value(); got != 60 {
		t.Errorf("xm_engine_tests_executed_total = %d, want 60", got)
	}
	s := o.Prog().Snapshot()
	if s.Done != 60 || s.Total != 60 {
		t.Errorf("progress = %d/%d, want 60/60", s.Done, s.Total)
	}
	if len(s.Outcomes) == 0 {
		t.Error("progress snapshot has no outcome tallies")
	}

	var prom strings.Builder
	if err := o.Registry().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"xm_engine_tests_executed_total 60",
		"xm_lease_issued_total",
		"xm_lease_completed_total",
		"xm_engine_encode_ns_count",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The trace stream lands next to the shards but outside the shard
	// pattern — merges must never read it.
	rc, err := st.OpenLog("shards/" + TraceName)
	if err != nil {
		t.Fatalf("trace stream missing: %v", err)
	}
	raw, _ := io.ReadAll(rc)
	rc.Close()
	kinds := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		kinds[ev.Kind]++
	}
	for _, k := range []string{"campaign.start", "campaign.end", "lease.issue", "lease.complete"} {
		if kinds[k] == 0 {
			t.Errorf("trace stream has no %q event (got %v)", k, kinds)
		}
	}
}

// TestFreshRunClearsStaleTrace: an instrumented fresh campaign in a
// directory that holds another campaign's shards, checkpoint and trace
// starts its own trace instead of appending to the old one.
func TestFreshRunClearsStaleTrace(t *testing.T) {
	st := store.NewMem()
	for seed, spec := range []string{"rand:5", "rand:7"} {
		plan, ropts, err := BuildPlan(Options{Plan: spec, Seed: int64(seed + 1), Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		eo := EngineOptions{Options: ropts, ShardDir: "run", CheckpointPath: "run/checkpoint.jsonl", Store: st, Obs: obs.New()}
		if _, err := StreamPlan(plan, eo, nil); err != nil {
			t.Fatal(err)
		}
		var starts []string
		for _, line := range bytes.Split(bytes.TrimSpace(readLog(t, st, "run/"+TraceName)), []byte("\n")) {
			var ev obs.Event
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("bad trace line %q: %v", line, err)
			}
			if ev.Kind == "campaign.start" {
				starts = append(starts, ev.Campaign)
			}
		}
		if len(starts) != 1 || starts[0] != spec {
			t.Fatalf("after the %s campaign the trace starts campaigns %q, want only %q", spec, starts, spec)
		}
	}
}

// TestTraceHoldsEveryLeaseOnce: with lease events emitted off the
// coordinator's lock and written in batches, a finished campaign's
// trace still holds exactly one lease.issue and one lease.complete per
// lease, with the same range, and its leases cover every position once.
func TestTraceHoldsEveryLeaseOnce(t *testing.T) {
	_, st := obsRun(t, obs.New())
	type span struct{ start, n int }
	issued, completed := map[uint64]span{}, map[uint64]span{}
	covered := map[int]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(readLog(t, st, "shards/"+TraceName)), []byte("\n")) {
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		var seen map[uint64]span
		switch ev.Kind {
		case "lease.issue":
			seen = issued
			for pos := ev.Start; pos < ev.Start+ev.N; pos++ {
				covered[pos]++
			}
		case "lease.complete":
			seen = completed
		default:
			continue
		}
		if _, dup := seen[ev.Lease]; dup {
			t.Fatalf("lease %d has two %s events", ev.Lease, ev.Kind)
		}
		seen[ev.Lease] = span{ev.Start, ev.N}
	}
	if len(issued) == 0 || len(issued) != len(completed) {
		t.Fatalf("the trace issues %d leases and completes %d", len(issued), len(completed))
	}
	for id, sp := range issued {
		if completed[id] != sp {
			t.Errorf("lease %d issued as %+v, completed as %+v", id, sp, completed[id])
		}
	}
	for pos := 0; pos < 60; pos++ {
		if covered[pos] != 1 {
			t.Errorf("position %d is in %d issued leases, want 1", pos, covered[pos])
		}
	}
}

// BenchmarkObsOverhead pins the cost of the observability seam in its
// two states. The "off" case is the invariant the whole design hangs on:
// a nil Obs must cost the hot path roughly one nil check per event —
// compare the two sub-benchmark timings when touching the seam.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, o *obs.Obs) {
		plan, ropts, err := BuildPlan(Options{Plan: "rand:200", Seed: 1, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		eo := EngineOptions{
			Options:        ropts,
			ShardDir:       "shards",
			Store:          store.NewMem(),
			BatchSize:      16,
			Obs:            o,
			TargetInstance: target.NewSim(target.Config{}),
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := StreamPlan(plan, eo, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, obs.New()) })
}
