package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestNewCodecAcceptsOnlyRaw pins the names NewCodec resolves: "" and
// "raw" name the one codec, anything else is refused.
func TestNewCodecAcceptsOnlyRaw(t *testing.T) {
	for _, name := range []string{"", "raw"} {
		if _, err := NewCodec(name); err != nil {
			t.Errorf("NewCodec(%q): %v", name, err)
		}
	}
	for _, name := range []string{"json", "msgpack", "RAW"} {
		if _, err := NewCodec(name); err == nil {
			t.Errorf("NewCodec(%q) accepted", name)
		}
	}
}

// corpusLines loads the fuzz seed corpus — real campaign records with
// divergence, injection, coverage and structured-HM fields present.
func corpusLines(t *testing.T) [][]byte {
	t.Helper()
	f, err := os.Open("testdata/fuzz-records.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty corpus")
	}
	return lines
}

// TestCodecsGoldenCorpus is the golden test of the wire format: for
// every record of the fuzz corpus, the codec's encoding must be
// byte-identical to encoding/json's, and its strict decoder (no
// fallback) must reproduce exactly the record encoding/json parses.
func TestCodecsGoldenCorpus(t *testing.T) {
	var rawC Codec
	for i, line := range corpusLines(t) {
		var rec JSONRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("corpus line %d does not parse: %v", i, err)
		}
		je, err := json.Marshal(&rec)
		if err != nil {
			t.Fatalf("line %d: json encode: %v", i, err)
		}
		re, err := rawC.AppendEncode(nil, &rec)
		if err != nil {
			t.Fatalf("line %d: raw encode: %v", i, err)
		}
		if !bytes.Equal(je, re) {
			t.Fatalf("line %d: codecs disagree:\n  json: %s\n  raw:  %s", i, je, re)
		}
		// The strict decoder must accept its own wire format without the
		// encoding/json fallback…
		var strict JSONRecord
		if err := rawDecodeRecord(&rawParser{b: je}, &strict); err != nil {
			t.Fatalf("line %d: strict raw decode refused codec output: %v", i, err)
		}
		// …and land on the identical record.
		var viaJSON JSONRecord
		if err := json.Unmarshal(je, &viaJSON); err != nil {
			t.Fatalf("line %d: json decode: %v", i, err)
		}
		if !reflect.DeepEqual(strict, viaJSON) {
			t.Fatalf("line %d: decoders disagree:\n  raw:  %+v\n  json: %+v", i, strict, viaJSON)
		}
		// The original corpus line itself (arbitrary field order, already
		// normalised or not) must decode identically through both decoders.
		var rawRec JSONRecord
		if err := rawC.Decode(line, &rawRec); err != nil {
			t.Fatalf("line %d: raw decode: %v", i, err)
		}
		if !reflect.DeepEqual(rawRec, rec) {
			t.Fatalf("line %d: raw decode drifted:\n  raw:  %+v\n  json: %+v", i, rawRec, rec)
		}
	}
}

// TestRawStringEscaping sweeps the encoder's escaping corners — HTML
// metacharacters, every control byte, invalid UTF-8, U+2028/U+2029,
// multibyte runes — against encoding/json, and round-trips each through
// the strict decoder.
func TestRawStringEscaping(t *testing.T) {
	cases := []string{
		"",
		"plain ascii",
		`quotes " and \ backslash`,
		"<script>&amp;</script>",
		"tab\tnewline\ncr\rbell\abackspace\bformfeed\f",
		"\x00\x01\x1f\x7f",
		"line sep \u2028 para sep \u2029",
		"valid utf8: héllo wörld ✓ 日本語",
		"invalid utf8: \xff\xfe broken \xc3 tail",
		"mixed \xed\xa0\x80 surrogate bytes",
		"ends with continuation \xc3",
	}
	for i := 0; i < 256; i++ {
		cases = append(cases, "byte "+string(rune(i)))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		got := rawAppendString(nil, s)
		if !bytes.Equal(want, got) {
			t.Errorf("encode %q:\n  json: %s\n  raw:  %s", s, want, got)
			continue
		}
		p := rawParser{b: got}
		back, err := p.str()
		if err != nil {
			t.Errorf("decode %s: %v", got, err)
			continue
		}
		var viaJSON string
		if err := json.Unmarshal(want, &viaJSON); err != nil {
			t.Fatalf("%s: %v", want, err)
		}
		if back != viaJSON {
			t.Errorf("round trip %q: raw %q vs json %q", s, back, viaJSON)
		}
	}
}

// TestRawDecoderFallback feeds the codec inputs outside its strict
// format — unknown keys, case-variant keys, floats in integer fields,
// overflow, trailing garbage, duplicate keys, unicode escapes — and
// requires exact agreement with encoding/json on both the outcome and
// the decoded record.
func TestRawDecoderFallback(t *testing.T) {
	var rawC Codec
	cases := []string{
		`{}`,
		`{"unknown_key":1}`,
		`{"Func":"case-insensitive"}`,
		`{"func":"x","seq":1.5}`,
		`{"func":"x","seq":1e3}`,
		`{"func":"x","seq":9223372036854775808}`,
		`{"func":"x","seq":-9223372036854775808}`,
		`{"func":"x","cold_resets":-1}`,
		`{"func":"x","cover":[4294967296]}`,
		`{"func":"x"} trailing`,
		`{"func":"a","func":"b"}`,
		`{"func":"esc \u0041\u00e9\ud83d\ude00\ud800 end"}`,
		`{"func":"lone \ud800 surrogate"}`,
		`{"seq":01}`,
		`{"seq":-0}`,
		`{"dataset":null,"returns":[],"return_names":["a"]}`,
		`{"injection":{"site":"ram","bit":256}}`,
		`{"injection":{"site":"ram","addr":18446744073709551615}}`,
		`{"hm":[{"seq":1,"t":-9223372036854775808,"ev":2,"act":3,"part":4}]}`,
		`{"divergence":{"targets":["a"],"fields":null,"a":[],"b":["x"]}}`,
		`{"divergence":{"targets":["a","b","c"],"fields":[],"a":[],"b":[]}}`,
		`  {  "func" : "spaced"  ,  "seq" : 7 }  `,
		`[1,2,3]`,
		`"just a string"`,
		`{"func":`,
		``,
	}
	for _, line := range cases {
		var viaRaw, viaJSON JSONRecord
		rawErr := rawC.Decode([]byte(line), &viaRaw)
		jsonErr := json.Unmarshal([]byte(line), &viaJSON)
		if (rawErr == nil) != (jsonErr == nil) {
			t.Errorf("%s: raw err %v vs json err %v", line, rawErr, jsonErr)
			continue
		}
		if rawErr == nil && !reflect.DeepEqual(viaRaw, viaJSON) {
			t.Errorf("%s:\n  raw:  %+v\n  json: %+v", line, viaRaw, viaJSON)
		}
	}
}
