package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"testing"
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
