package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"xmrobust/internal/corpus"
	"xmrobust/internal/store"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// TestCancelledCampaignResumesByteIdentical is the context-seam
// contract: cancelling a checkpointed campaign mid-run surfaces
// context.Canceled, leaves flushed shards and a durable checkpoint,
// and resuming replays the remainder to a merged log byte-identical
// to an uninterrupted run's.
func TestCancelledCampaignResumesByteIdentical(t *testing.T) {
	datasets := mixedSuite(t)
	opts := Options{Workers: 2}

	// The uninterrupted reference run.
	full := t.TempDir()
	if _, err := Stream(datasets, EngineOptions{
		Options: opts, ShardDir: full, CheckpointPath: filepath.Join(full, "ckpt.jsonl"),
	}, nil); err != nil {
		t.Fatal(err)
	}

	// The cancelled run: pull the plug from the sink a few tests in.
	split := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eo := EngineOptions{
		Options: opts, Ctx: ctx,
		ShardDir: split, CheckpointPath: filepath.Join(split, "ckpt.jsonl"),
	}
	seen := 0
	s1, err := Stream(datasets, eo, func(int, Result) {
		if seen++; seen == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	if s1.Executed >= len(datasets) {
		t.Fatalf("cancelled campaign executed all %d tests; cancellation did nothing", s1.Executed)
	}
	if s1.Executed < 5 {
		t.Fatalf("cancelled campaign executed %d tests, want at least the 5 the sink saw", s1.Executed)
	}

	// Resume without a context: the balance executes, and the merged
	// log matches the uninterrupted run byte for byte.
	eo.Ctx = nil
	eo.Resume = true
	s2, err := Stream(datasets, eo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Skipped != s1.Executed || s2.Executed != len(datasets)-s1.Executed {
		t.Fatalf("resume skipped %d / executed %d after a %d-test cancelled leg",
			s2.Skipped, s2.Executed, s1.Executed)
	}
	a, b := mergeDir(t, store.Local(), full), mergeDir(t, store.Local(), split)
	if !bytes.Equal(a, b) {
		t.Fatal("merged campaign logs differ between uninterrupted and cancelled-then-resumed runs")
	}
}

// TestPreCancelledContextRunsNothing: a context already done when the
// campaign starts runs no test — a lease a worker takes before the stop
// closes the coordinator is skipped.
func TestPreCancelledContextRunsNothing(t *testing.T) {
	datasets := mixedSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := Stream(datasets, EngineOptions{Options: Options{Workers: 2}, Ctx: ctx}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if stats.Executed != 0 {
		t.Fatalf("pre-cancelled campaign executed %d tests", stats.Executed)
	}
}

// TestNilContextUnchanged: the historical no-context path stays intact —
// a nil Ctx runs the campaign to completion with a nil error.
func TestNilContextUnchanged(t *testing.T) {
	datasets := mixedSuite(t)
	stats, err := Stream(datasets, EngineOptions{Options: Options{Workers: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != len(datasets) {
		t.Fatalf("executed %d of %d", stats.Executed, len(datasets))
	}
}

// abortingTarget executes on sim but returns its n-th execution
// Aborted, as the remote client does when its fleet stays down through
// every attempt.
type abortingTarget struct {
	target.Target
	n     int64
	calls atomic.Int64
}

func (a *abortingTarget) Execute(slot target.Slot, ds testgen.Dataset, spec target.RunSpec) target.Result {
	if a.calls.Add(1) == a.n {
		return target.Result{Dataset: ds, RunErr: "remote: dial 127.0.0.1:1: connection refused", Aborted: true}
	}
	return a.Target.Execute(slot, ds, spec)
}

// TestAbortedResultStopsCampaignResumably: a test the target could not
// execute stops the campaign with the target's error and is logged
// nowhere, and a resume finishes the campaign to the bytes of an
// uninterrupted run. A feedback plan, whose bred positions wait on the
// aborted one's coverage, stops as well instead of hanging, and runs
// nothing bred without that coverage.
func TestAbortedResultStopsCampaignResumably(t *testing.T) {
	for _, plan := range []string{"rand:60", "feedback:60"} {
		t.Run(plan, func(t *testing.T) {
			opts := Options{Plan: plan, Seed: 3, Workers: 2}
			full := t.TempDir()
			src := planSource(t, plan, opts)
			if _, err := StreamPlan(src, EngineOptions{Options: opts, ShardDir: full}, nil); err != nil {
				t.Fatal(err)
			}
			want := mergeDir(t, store.Local(), full)
			// Abort the 21st execution. On the feedback plan, abort a bred
			// test that grew the frontier: bred tests run one at a time
			// in position order after the seeds, so execution p+1 is
			// position p, and the positions after it differ when bred
			// without its coverage.
			n := int64(21)
			if fp, ok := src.(*corpus.FeedbackPlan); ok {
				st := fp.Stats()
				for p := st.Seeds; p < len(st.History); p++ {
					if st.History[p] > st.History[p-1] {
						n = int64(p + 1)
						break
					}
				}
			}

			dir := t.TempDir()
			eo := EngineOptions{Options: opts, ShardDir: dir, CheckpointPath: filepath.Join(dir, "ckpt")}
			stopped := eo
			stopped.TargetInstance = &abortingTarget{Target: target.NewSim(target.Config{}), n: n}
			stats, err := StreamPlan(planSource(t, plan, opts), stopped, nil)
			if err == nil || !strings.Contains(err.Error(), "remote: dial") {
				t.Fatalf("aborted campaign returned %v, want the target's error", err)
			}
			if stats.Executed >= 60 {
				t.Fatalf("aborted campaign executed all %d tests", stats.Executed)
			}
			if err := ScanShards(dir, func(rec JSONRecord) error {
				if rec.RunErr != "" {
					return fmt.Errorf("record %d carries run_err %q", rec.Seq, rec.RunErr)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			eo.Resume = true
			if _, err := StreamPlan(planSource(t, plan, opts), eo, nil); err != nil {
				t.Fatal(err)
			}
			if got := mergeDir(t, store.Local(), dir); !bytes.Equal(want, got) {
				t.Fatalf("resumed log differs from an uninterrupted run (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
