package campaign

import (
	"bytes"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xmrobust/internal/store"
)

// campaignShards runs the plan spec on two workers with its shards in a
// new directory and returns the directory.
func campaignShards(tb testing.TB, plan string) string {
	tb.Helper()
	src, opts, err := BuildPlan(Options{Plan: plan, Seed: 1, Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if _, err := StreamPlan(src, EngineOptions{Options: opts, ShardDir: dir}, nil); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// BenchmarkMergeShards merges the shards the paper campaign leaves on
// two workers: 2661 records.
func BenchmarkMergeShards(b *testing.B) {
	dir := campaignShards(b, "exhaustive")
	b.ReportAllocs()
	for b.Loop() {
		if _, err := MergeShards(dir, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMergeShardsAllocs bounds what one merge allocates: the store's
// listing and opening, the read and write buffers, and the growth of
// the arena and its index. Nothing is allocated per record, so the
// paper campaign's 2661 records cost no more than rand:50's 50.
func TestMergeShardsAllocs(t *testing.T) {
	for _, plan := range []string{"rand:50", "exhaustive"} {
		dir := campaignShards(t, plan)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := MergeShards(dir, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 128 {
			t.Errorf("%s: one merge allocated %.0f times, want at most 128", plan, allocs)
		}
	}
}

// canonRecord is the encoder's line for a small record.
func canonRecord(seq int, fn string) string {
	rec := JSONRecord{Func: fn, Seq: seq, KernelState: "RUNNING", PartState: "NORMAL"}
	line, _ := Codec{}.AppendEncode(nil, &rec)
	return string(line)
}

// TestMergeHostileShards pins what the merge, and the line scan the
// daemon's replay sends, make of shards no engine writes: corruption
// mid-file fails before a byte is written, naming its shard; lines only
// encoding/json accepts, spaced lines and CRLF endings come out as the
// encoder's bytes; torn tails and blank lines are skipped; a seq
// written twice keeps its first copy; and a shard's resume-appended
// lower seq merges into campaign order. The replay's lines, first copy
// of each seq, are the merged log's.
func TestMergeHostileShards(t *testing.T) {
	r0, r1, r2, r3 := canonRecord(0, "XM_a"), canonRecord(1, "XM_b"), canonRecord(2, "XM_c"), canonRecord(3, "XM_get_time")
	for _, row := range []struct {
		name   string
		shards []string // shard-000, shard-001, …
		want   []string // the merged lines
		errIn  string   // the shard a failing merge names
	}{{
		name:   "corrupt line mid-file",
		shards: []string{r0 + "\n" + `{"func":"XM_b","seq":` + "\n" + r2 + "\n", r1 + "\n"},
		errIn:  "shard-000.jsonl",
	}, {
		name:   "corrupt line in a later shard",
		shards: []string{r0 + "\n", r1 + "\n" + "\x00\n"},
		errIn:  "shard-001.jsonl",
	}, {
		name:   "unknown key",
		shards: []string{`{"func":"XM_a","seq":0,"kernel_state":"RUNNING","part_state":"NORMAL","extra":[1,{}]}` + "\n"},
		want:   []string{r0},
	}, {
		name:   "json.dumps spacing",
		shards: []string{`{"func": "XM_get_time", "seq": 3, "kernel_state": "RUNNING", "part_state": "NORMAL"}` + "\n"},
		want:   []string{r3},
	}, {
		name:   "CRLF endings",
		shards: []string{r1 + "\r\n" + r0 + "\r\n"},
		want:   []string{r0, r1},
	}, {
		name:   "torn tail and blank lines",
		shards: []string{"\n" + r0 + "\n  \n\r\n" + r2 + "\n" + `{"func":"XM_tor`, r1 + "\n\n"},
		want:   []string{r0, r1, r2},
	}, {
		name:   "seq in two shards keeps its first copy",
		shards: []string{r0 + "\n", r1 + "\n" + canonRecord(0, "XM_later") + "\n"},
		want:   []string{r0, r1},
	}, {
		name:   "resume-appended lower seq",
		shards: []string{r2 + "\n" + r3 + "\n" + r0 + "\n", r1 + "\n"},
		want:   []string{r0, r1, r2, r3},
	}} {
		t.Run(row.name, func(t *testing.T) {
			st := store.NewMem()
			for i, content := range row.shards {
				w, _ := st.AppendLog(shardPath("run", i), false)
				io.WriteString(w, content)
				w.Close()
			}
			var merged bytes.Buffer
			n, err := MergeShardsIn(st, "run", &merged)
			replayed := map[int]string{}
			replayErr := ScanShardLinesIn(st, "run", func(seq int, line []byte) error {
				if _, dup := replayed[seq]; !dup {
					replayed[seq] = string(line)
				}
				return nil
			})
			if row.errIn != "" {
				if err == nil || !strings.Contains(err.Error(), row.errIn) {
					t.Fatalf("merge error %v, want one naming %s", err, row.errIn)
				}
				if merged.Len() != 0 {
					t.Fatalf("a failed merge wrote %q", merged.Bytes())
				}
				if replayErr == nil || !strings.Contains(replayErr.Error(), row.errIn) {
					t.Fatalf("line scan error %v, want one naming %s", replayErr, row.errIn)
				}
				return
			}
			if err != nil || replayErr != nil {
				t.Fatalf("merge: %v; line scan: %v", err, replayErr)
			}
			want := strings.Join(row.want, "\n") + "\n"
			if got := merged.String(); got != want || n != len(row.want) {
				t.Fatalf("merged %d records:\n%s\nwant %d:\n%s", n, got, len(row.want), want)
			}
			seqs := make([]int, 0, len(replayed))
			for seq := range replayed {
				seqs = append(seqs, seq)
			}
			slices.Sort(seqs)
			var replay strings.Builder
			for _, seq := range seqs {
				replay.WriteString(replayed[seq] + "\n")
			}
			if replay.String() != want {
				t.Fatalf("replayed lines:\n%s\nwant the merged log:\n%s", replay.String(), want)
			}
		})
	}
}

// TestFreshCampaignInGlobDir: a campaign directory whose name holds a
// glob metacharacter is a name like any other. A fresh campaign in
// "c[1]" beside a finished one in "c1" clears and merges only its own
// shards.
func TestFreshCampaignInGlobDir(t *testing.T) {
	datasets := mixedSuite(t)
	for _, tc := range []struct {
		name string
		st   store.Store
		base string
	}{{"FS", store.Local(), t.TempDir()}, {"Mem", store.NewMem(), "data"}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(dir string, n int) {
				eo := EngineOptions{Options: Options{Workers: 2}, ShardDir: dir,
					CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"), Store: tc.st}
				if _, err := Stream(datasets[:n], eo, nil); err != nil {
					t.Fatal(err)
				}
			}
			finished, fresh := filepath.Join(tc.base, "c1"), filepath.Join(tc.base, "c[1]")
			run(finished, 6)
			want := mergeDir(t, tc.st, finished)
			run(fresh, 4)
			if got := mergeDir(t, tc.st, finished); !bytes.Equal(got, want) {
				t.Fatalf("the campaign in c[1] changed c1's merged log:\n%s", diffLines(want, got))
			}
			if got := mergedRecords(t, tc.st, fresh); len(got) != 4 {
				t.Fatalf("c[1] merged %d records, want its own 4", len(got))
			}
		})
	}
}
