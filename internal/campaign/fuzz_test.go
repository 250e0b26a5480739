package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"xmrobust/internal/store"
)

// FuzzJSONRecordRoundTrip drives arbitrary JSONL lines through the
// campaign-log pipeline: parse → reconstruct the in-memory Result →
// re-serialise → reconstruct again. Two properties must hold for any
// input, however hostile:
//
//  1. no panic anywhere on the path (the log readers face files edited,
//     truncated or produced by other tools), and
//  2. fixed-point stability: once a record has been normalised by one
//     reconstruct→serialise pass, further passes are byte-identical —
//     otherwise a log rewritten by tooling would drift on every rewrite.
//
// The seed corpus (testdata/fuzz-records.jsonl) is harvested from real
// campaigns: the diff-smoke divergence-oracle run and an inject:sim SEU
// run, so the divergence, injection, coverage and structured-HM fields
// are all present from the first iteration.
func FuzzJSONRecordRoundTrip(f *testing.F) {
	file, err := os.Open("testdata/fuzz-records.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	sc := bufio.NewScanner(file)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f.Add(append([]byte(nil), sc.Bytes()...))
	}
	file.Close()
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	// Hand-built corner cases: empty record, unknown vocabulary, fields
	// with mismatched lengths, out-of-range coverage sites.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"func":"XM_bogus","seq":-3,"kernel_state":"EXPLODED","part_state":"","returns":[99],"return_names":[]}`))
	f.Add([]byte(`{"func":"XM_get_time","dataset":["1","2","3"],"descs":["only one"],"validity":["valid"]}`))
	f.Add([]byte(`{"func":"XM_get_time","cover":[4294967295,7,7,0],"cover_sig":"zzz"}`))
	f.Add([]byte(`{"func":"XM_get_time","hm":[{"seq":4,"t":-1,"ev":999,"act":-7,"part":-2,"detail":"x"}]}`))
	f.Add([]byte(`{"func":"XM_get_time","injection":{"site":"warp","phase":"never","bit":255,"applied":true,"outcome":"??"}}`))
	f.Add([]byte(`{"func":"XM_get_time","divergence":{"targets":["a","b"],"fields":["x"],"a":[],"b":["1","2"]}}`))

	var rawC Codec
	f.Fuzz(func(t *testing.T, line []byte) {
		// The check pass walks the strict grammar building nothing: it
		// accepts exactly the lines the strict decoder accepts, and reads
		// the same seq.
		var strict JSONRecord
		strictErr := rawDecodeRecord(&rawParser{b: line}, &strict)
		seq, _, checkErr := rawCheckRecord(line)
		if (strictErr == nil) != (checkErr == nil) {
			t.Fatalf("check pass and strict decoder disagree on acceptance: %v vs %v", checkErr, strictErr)
		}
		if strictErr == nil && seq != strict.Seq {
			t.Fatalf("check pass read seq %d, the strict decoder %d", seq, strict.Seq)
		}
		// The raw codec must agree with encoding/json on every input,
		// however hostile: same accept/reject outcome, same record.
		var rec, viaRaw JSONRecord
		jsonErr := json.Unmarshal(line, &rec)
		rawErr := rawC.Decode(line, &viaRaw)
		if (jsonErr == nil) != (rawErr == nil) {
			t.Fatalf("codecs disagree on acceptance: json %v vs raw %v", jsonErr, rawErr)
		}
		if jsonErr != nil {
			t.Skip()
		}
		if a, _ := json.Marshal(rec); true {
			b, _ := json.Marshal(viaRaw)
			if !bytes.Equal(a, b) {
				t.Fatalf("codecs decode differently:\n  json: %s\n  raw:  %s", a, b)
			}
		}
		res, err := rec.Result(nil)
		if err != nil {
			// Rejected (e.g. an unknown validity word) — rejection is an
			// acceptable outcome, panicking is not.
			t.Skip()
		}
		norm := ToRecord(rec.Seq, res)
		first, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("normalised record does not marshal: %v", err)
		}
		// The raw encoder must reproduce the reference wire format byte
		// for byte on every record the pipeline can produce.
		raw, err := rawC.AppendEncode(nil, &norm)
		if err != nil {
			t.Fatalf("raw encode: %v", err)
		}
		if !bytes.Equal(first, raw) {
			t.Fatalf("raw encoding diverges from the wire format:\n  json: %s\n  raw:  %s", first, raw)
		}
		res2, err := norm.Result(nil)
		if err != nil {
			t.Fatalf("normalised record does not reconstruct: %v", err)
		}
		second, err := json.Marshal(ToRecord(norm.Seq, res2))
		if err != nil {
			t.Fatalf("second pass does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip is not a fixed point:\n  pass 1: %s\n  pass 2: %s", first, second)
		}
	})
}

// FuzzMergeShards merges arbitrary bytes, cut at a fuzzer-chosen offset
// into two shards. Shard files are a trust boundary: they outlive the
// process that wrote them and can be edited, truncated or written by
// other tools. For any input:
//
//  1. the merge does not panic;
//  2. it fails exactly when some complete, non-blank line is one the
//     codec refuses, and then writes nothing;
//  3. on success every merged line decodes, seqs strictly increase, and
//     merging the merged log as one shard reproduces it byte for byte;
//  4. when every input line is the encoder's own rendering, the merged
//     log equals the reference merge: decode every record, sort by seq
//     keeping the first copy, re-encode.
func FuzzMergeShards(f *testing.F) {
	file, err := os.ReadFile("testdata/fuzz-records.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(file, []byte("\n"))
	f.Add(bytes.Join(lines[:4], nil), uint16(len(lines[0])))
	f.Add(bytes.Join(lines[2:6], nil), uint16(len(lines[2])+len(lines[3])/2))
	r0, r1 := canonRecord(0, "XM_a"), canonRecord(1, "XM_b")
	f.Add([]byte(r1+"\n"+r0+"\r\n\n"+r1+"\n"), uint16(len(r1)+1))
	f.Add([]byte(`{"func": "XM_get_time", "seq": 3}`+"\n"+r0+"\n"+`{"seq":0,"unknown":1}`+"\n"), uint16(0))
	f.Add([]byte(r0+"\n"+`{"func":"XM_b","seq":`+"\n"+r1+"\n"), uint16(3))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		at := int(cut) % (len(data) + 1)
		shards := [][]byte{data[:at], data[at:]}
		st := store.NewMem()
		for i, shard := range shards {
			w, _ := st.AppendLog(shardPath("f", i), false)
			w.Write(shard)
			w.Close()
		}
		var out bytes.Buffer
		n, err := MergeShardsIn(st, "f", &out)

		refused, canonical := false, true
		var ref []JSONRecord
		for _, shard := range shards {
			complete := shard[:bytes.LastIndexByte(shard, '\n')+1]
			for _, line := range bytes.SplitAfter(complete, []byte("\n")) {
				if len(bytes.TrimSpace(line)) == 0 {
					continue
				}
				var rec JSONRecord
				if (Codec{}).Decode(line, &rec) != nil {
					refused = true
					continue
				}
				ref = append(ref, rec)
				enc, _ := Codec{}.AppendEncode(nil, &rec)
				canonical = canonical && bytes.Equal(append(enc, '\n'), line)
			}
		}
		if (err != nil) != refused {
			t.Fatalf("merge error %v, but a complete line refused by the codec: %v", err, refused)
		}
		if err != nil {
			if out.Len() != 0 {
				t.Fatalf("a failed merge wrote %d bytes", out.Len())
			}
			return
		}

		merged := bytes.SplitAfter(out.Bytes(), []byte("\n"))
		merged = merged[:len(merged)-1] // the empty piece after the last newline
		if n != len(merged) {
			t.Fatalf("merge reported %d records and wrote %d lines", n, len(merged))
		}
		for i, line := range merged {
			var rec, prev JSONRecord
			if err := (Codec{}).Decode(line, &rec); err != nil {
				t.Fatalf("merged line %d does not decode: %v\n%s", i, err, line)
			}
			if i > 0 {
				(Codec{}).Decode(merged[i-1], &prev)
				if rec.Seq <= prev.Seq {
					t.Fatalf("merged line %d has seq %d after seq %d", i, rec.Seq, prev.Seq)
				}
			}
		}
		again := store.NewMem()
		w, _ := again.AppendLog(shardPath("g", 0), false)
		w.Write(out.Bytes())
		w.Close()
		var twice bytes.Buffer
		if _, err := MergeShardsIn(again, "g", &twice); err != nil || !bytes.Equal(twice.Bytes(), out.Bytes()) {
			t.Fatalf("merging the merged log gave %v:\n%s\nwant:\n%s", err, twice.Bytes(), out.Bytes())
		}

		if !canonical {
			return
		}
		slices.SortStableFunc(ref, func(a, b JSONRecord) int { return a.Seq - b.Seq })
		var want []byte
		for i := range ref {
			if i > 0 && ref[i].Seq == ref[i-1].Seq {
				continue
			}
			want, _ = Codec{}.AppendEncode(want, &ref[i])
			want = append(want, '\n')
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("merged log:\n%s\ndiffers from the reference merge:\n%s", out.Bytes(), want)
		}
	})
}
