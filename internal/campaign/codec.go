package campaign

// This file is the record codec: the hand-written encoder and decoder
// that carry campaign-log records through shard files, merged logs,
// remote response frames and SSE streams, without encoding/json's
// per-record reflection and allocation cost. The wire format is
// encoding/json's rendering of JSONRecord; the golden and fuzz tests pin
// the codec to it byte for byte across the fuzz corpus.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"xmrobust/internal/inject"
)

// injectInjection keeps the decoder's nested-object parser on the same
// type the record embeds.
type injectInjection = inject.Injection

// Codec serialises campaign-log records to JSON Lines and back. The
// encoder reproduces encoding/json's rendering of JSONRecord byte for
// byte (field order, omitempty, nil slices as null, HTML escaping,
// U+FFFD replacement) without reflection or per-record allocation; the
// decoder parses the same format strictly and defers to encoding/json
// on any line it does not fully recognise, so hostile or foreign input
// gets exactly the reference semantics. The zero value is ready to use.
type Codec struct{}

// NewCodec returns the record codec. "" and "raw" both name it; any
// other name is refused.
func NewCodec(name string) (Codec, error) {
	if name != "" && name != "raw" {
		return Codec{}, fmt.Errorf("campaign: unknown codec %q (have raw)", name)
	}
	return Codec{}, nil
}

// AppendEncode appends one record (without the trailing newline) to dst
// and returns the extended buffer. Every JSONRecord has a wire form, so
// the error is always nil.
func (Codec) AppendEncode(dst []byte, rec *JSONRecord) ([]byte, error) {
	return rawAppendRecord(dst, rec), nil
}

// Decode overwrites *rec with the record parsed from one line.
func (Codec) Decode(line []byte, rec *JSONRecord) error {
	*rec = JSONRecord{}
	if rawDecodeRecord(&rawParser{b: line}, rec) != nil {
		*rec = JSONRecord{}
		return json.Unmarshal(line, rec)
	}
	return nil
}

// rawCheckRecord runs the strict parser over line in check mode: the
// grammar of rawDecodeRecord, building no string, slice or struct. It
// returns the record's seq, as Decode would read it, and reports
// whether the line is compact: free of whitespace outside its strings.
// Any error means only Decode can tell whether, and how, the line
// decodes.
func rawCheckRecord(line []byte) (seq int, compact bool, err error) {
	p := rawParser{b: line, check: true}
	var rec JSONRecord
	err = rawDecodeRecord(&p, &rec)
	return rec.Seq, !p.spaced, err
}

// --- raw encoder --------------------------------------------------------

const rawHexDigits = "0123456789abcdef"

// rawAppendString appends the encoding/json rendering of s: quoted, with
// HTML-sensitive characters (<, >, &) and controls escaped, invalid
// UTF-8 replaced by �, and U+2028/U+2029 escaped for embedders.
func rawAppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', rawHexDigits[b>>4], rawHexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', rawHexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// rawAppendStrings renders a []string field without omitempty semantics:
// nil is null, empty is [].
func rawAppendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = rawAppendString(dst, s)
	}
	return append(dst, ']')
}

func rawAppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// rawAppendRecord appends the wire rendering of rec — field for field
// the order and omitempty behaviour of the JSONRecord struct tags.
func rawAppendRecord(dst []byte, rec *JSONRecord) []byte {
	dst = append(dst, `{"func":`...)
	dst = rawAppendString(dst, rec.Func)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendInt(dst, int64(rec.Seq), 10)
	if rec.Target != "" {
		dst = append(dst, `,"target":`...)
		dst = rawAppendString(dst, rec.Target)
	}
	if rec.State != "" {
		dst = append(dst, `,"state":`...)
		dst = rawAppendString(dst, rec.State)
	}
	if rec.TestPart != 0 {
		dst = append(dst, `,"test_part":`...)
		dst = strconv.AppendInt(dst, int64(rec.TestPart), 10)
	}
	dst = append(dst, `,"dataset":`...)
	dst = rawAppendStrings(dst, rec.Dataset)
	if len(rec.Descs) > 0 {
		dst = append(dst, `,"descs":`...)
		dst = rawAppendStrings(dst, rec.Descs)
	}
	if len(rec.Validity) > 0 {
		dst = append(dst, `,"validity":`...)
		dst = rawAppendStrings(dst, rec.Validity)
	}
	dst = append(dst, `,"invocations":`...)
	dst = strconv.AppendInt(dst, int64(rec.Invocations), 10)
	dst = append(dst, `,"returns":`...)
	if rec.Returns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, rc := range rec.Returns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(rc), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"return_names":`...)
	dst = rawAppendStrings(dst, rec.ReturnNames)
	dst = append(dst, `,"kernel_state":`...)
	dst = rawAppendString(dst, rec.KernelState)
	if rec.KernelHalt != "" {
		dst = append(dst, `,"kernel_halt":`...)
		dst = rawAppendString(dst, rec.KernelHalt)
	}
	dst = append(dst, `,"cold_resets":`...)
	dst = strconv.AppendUint(dst, uint64(rec.ColdResets), 10)
	dst = append(dst, `,"warm_resets":`...)
	dst = strconv.AppendUint(dst, uint64(rec.WarmResets), 10)
	if len(rec.HMEvents) > 0 {
		dst = append(dst, `,"hm_events":`...)
		dst = rawAppendStrings(dst, rec.HMEvents)
	}
	if len(rec.HMLog) > 0 {
		dst = append(dst, `,"hm":[`...)
		for i := range rec.HMLog {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = rawAppendHMEvent(dst, &rec.HMLog[i])
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"part_state":`...)
	dst = rawAppendString(dst, rec.PartState)
	if rec.PartDetail != "" {
		dst = append(dst, `,"part_detail":`...)
		dst = rawAppendString(dst, rec.PartDetail)
	}
	dst = append(dst, `,"sim_crashed":`...)
	dst = rawAppendBool(dst, rec.SimCrashed)
	if rec.CrashReason != "" {
		dst = append(dst, `,"crash_reason":`...)
		dst = rawAppendString(dst, rec.CrashReason)
	}
	if rec.RunErr != "" {
		dst = append(dst, `,"run_err":`...)
		dst = rawAppendString(dst, rec.RunErr)
	}
	if len(rec.Cover) > 0 {
		dst = append(dst, `,"cover":[`...)
		for i, site := range rec.Cover {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, uint64(site), 10)
		}
		dst = append(dst, ']')
	}
	if rec.CoverSig != "" {
		dst = append(dst, `,"cover_sig":`...)
		dst = rawAppendString(dst, rec.CoverSig)
	}
	if d := rec.Divergence; d != nil {
		dst = append(dst, `,"divergence":{"targets":[`...)
		dst = rawAppendString(dst, d.Targets[0])
		dst = append(dst, ',')
		dst = rawAppendString(dst, d.Targets[1])
		dst = append(dst, `],"fields":`...)
		dst = rawAppendStrings(dst, d.Fields)
		dst = append(dst, `,"a":`...)
		dst = rawAppendStrings(dst, d.A)
		dst = append(dst, `,"b":`...)
		dst = rawAppendStrings(dst, d.B)
		dst = append(dst, '}')
	}
	if inj := rec.Injection; inj != nil {
		dst = append(dst, `,"injection":{"site":`...)
		dst = rawAppendString(dst, inj.Site)
		dst = append(dst, `,"phase":`...)
		dst = rawAppendString(dst, inj.Phase)
		dst = append(dst, `,"bit":`...)
		dst = strconv.AppendUint(dst, uint64(inj.Bit), 10)
		if inj.Frame != 0 {
			dst = append(dst, `,"frame":`...)
			dst = strconv.AppendInt(dst, int64(inj.Frame), 10)
		}
		if inj.Addr != 0 {
			dst = append(dst, `,"addr":`...)
			dst = strconv.AppendUint(dst, inj.Addr, 10)
		}
		if inj.Cycle != 0 {
			dst = append(dst, `,"cycle":`...)
			dst = strconv.AppendInt(dst, inj.Cycle, 10)
		}
		dst = append(dst, `,"applied":`...)
		dst = rawAppendBool(dst, inj.Applied)
		if inj.Outcome != "" {
			dst = append(dst, `,"outcome":`...)
			dst = rawAppendString(dst, inj.Outcome)
		}
		if inj.Delta != "" {
			dst = append(dst, `,"delta":`...)
			dst = rawAppendString(dst, inj.Delta)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

func rawAppendHMEvent(dst []byte, e *JSONHMEvent) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, uint64(e.Seq), 10)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendInt(dst, e.Time, 10)
	dst = append(dst, `,"ev":`...)
	dst = strconv.AppendInt(dst, int64(e.Event), 10)
	dst = append(dst, `,"act":`...)
	dst = strconv.AppendInt(dst, int64(e.Action), 10)
	if e.Sys {
		dst = append(dst, `,"sys":true`...)
	}
	dst = append(dst, `,"part":`...)
	dst = strconv.AppendInt(dst, int64(e.Part), 10)
	if e.Detail != "" {
		dst = append(dst, `,"detail":`...)
		dst = rawAppendString(dst, e.Detail)
	}
	return append(dst, '}')
}

// --- raw decoder --------------------------------------------------------

// errRawFallback marks a line the strict parser declines: anything
// outside the wire format's own shape (unknown keys, non-integer
// numbers, out-of-range values, trailing garbage). The codec then hands
// the line to encoding/json, whose semantics — including its exact
// error — are authoritative.
var errRawFallback = fmt.Errorf("campaign: raw codec: line outside the strict wire format")

// rawParser is the strict parser's state over one line. In check mode
// it walks the same grammar but builds nothing: strings come back
// empty, slices and nested objects nil.
type rawParser struct {
	b     []byte
	i     int
	check bool
	// spaced records whether any whitespace lay between tokens.
	spaced bool
}

func (p *rawParser) ws() {
	i := p.i
	for i < len(p.b) && (p.b[i] == ' ' || p.b[i] == '\t' || p.b[i] == '\n' || p.b[i] == '\r') {
		i++
	}
	if i > p.i {
		p.i, p.spaced = i, true
	}
}

// lit consumes c (after whitespace) and reports whether it was there.
func (p *rawParser) lit(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// null consumes the null literal when present.
func (p *rawParser) null() bool {
	p.ws()
	if p.i+4 <= len(p.b) && string(p.b[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

// str parses one JSON string with full escape handling. Raw control
// characters and malformed escapes defer to the fallback, matching
// encoding/json's rejections; invalid UTF-8 passes through as U+FFFD,
// matching its coercion. In check mode it returns "".
func (p *rawParser) str() (string, error) {
	b, err := p.strBytes(!p.check)
	if err != nil || p.check {
		return "", err
	}
	return string(b), nil
}

// rawPlain marks the bytes a string holds as they are: printable ASCII
// other than the quote and the backslash.
var rawPlain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// key parses an object key. A key without escapes is returned as a
// slice of the line, so matching it against the known keys allocates
// nothing; an escaped key is built, in check mode too.
func (p *rawParser) key() ([]byte, error) { return p.strBytes(true) }

// strBytes parses one JSON string and, with build, returns its decoded
// bytes: a slice of the line when the string holds no escape, control
// or non-ASCII byte, else a new buffer. Without build it only checks
// the string and returns nil for any string that is not such a slice.
func (p *rawParser) strBytes(build bool) ([]byte, error) {
	p.ws()
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, errRawFallback
	}
	start := p.i + 1
	i := start
	for i < len(p.b) && rawPlain[p.b[i]] {
		i++
	}
	p.i = i
	if i < len(p.b) && p.b[i] == '"' {
		p.i++
		return p.b[start:i], nil
	}
	var buf []byte
	if build {
		buf = append(make([]byte, 0, 64), p.b[start:p.i]...)
	}
	for p.i < len(p.b) {
		c := p.b[p.i]
		var r rune
		switch {
		case c == '"':
			p.i++
			return buf, nil
		case c < ' ':
			return nil, errRawFallback
		case c == '\\':
			var err error
			if r, err = p.escape(); err != nil {
				return nil, err
			}
		case c < utf8.RuneSelf:
			r = rune(c)
			p.i++
		default:
			// An invalid byte decodes as U+FFFD with size 1.
			var size int
			r, size = utf8.DecodeRune(p.b[p.i:])
			p.i += size
		}
		if build {
			buf = utf8.AppendRune(buf, r)
		}
	}
	return nil, errRawFallback
}

// escape consumes one backslash escape and returns the rune it stands
// for. A surrogate pair joins into one rune; a lone surrogate is U+FFFD.
func (p *rawParser) escape() (rune, error) {
	p.i++
	if p.i >= len(p.b) {
		return 0, errRawFallback
	}
	e := p.b[p.i]
	p.i++
	switch e {
	case '"', '\\', '/':
		return rune(e), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'u':
		r, err := p.hex4()
		if err != nil || !utf16.IsSurrogate(r) {
			return r, err
		}
		if p.i+2 <= len(p.b) && p.b[p.i] == '\\' && p.b[p.i+1] == 'u' {
			save := p.i
			p.i += 2
			lo, err := p.hex4()
			if err != nil {
				return 0, err
			}
			if dec := utf16.DecodeRune(r, lo); dec != utf8.RuneError {
				return dec, nil
			}
			p.i = save
		}
		return utf8.RuneError, nil
	}
	return 0, errRawFallback
}

// hex4 parses four hex digits of a \u escape.
func (p *rawParser) hex4() (rune, error) {
	if p.i+4 > len(p.b) {
		return 0, errRawFallback
	}
	var r rune
	for _, c := range p.b[p.i : p.i+4] {
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 + rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 + rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 + rune(c-'A'+10)
		default:
			return 0, errRawFallback
		}
	}
	p.i += 4
	return r, nil
}

// intIn parses a JSON integer within [min, max]. Fractions, exponents,
// leading zeros and out-of-range values defer to the fallback — exactly
// the inputs encoding/json rejects (or that would overflow the field).
func (p *rawParser) intIn(min, max int64) (int64, error) {
	p.ws()
	neg := false
	if p.i < len(p.b) && p.b[p.i] == '-' {
		neg = true
		p.i++
	}
	start := p.i
	var v uint64
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		d := uint64(p.b[p.i] - '0')
		// Cap the magnitude at 1<<63 (the widest any int64 field needs);
		// anything larger overflows every integer field and falls back.
		if v > ((1<<63)-d)/10 {
			return 0, errRawFallback
		}
		v = v*10 + d
		p.i++
	}
	if p.i == start || (p.b[start] == '0' && p.i-start > 1) {
		return 0, errRawFallback
	}
	if p.i < len(p.b) {
		switch p.b[p.i] {
		case '.', 'e', 'E':
			return 0, errRawFallback
		}
	}
	var out int64
	if neg {
		// v == 1<<63 negates to exactly minInt64.
		out = -int64(v)
	} else {
		if v > 1<<63-1 {
			return 0, errRawFallback
		}
		out = int64(v)
	}
	if out < min || out > max {
		return 0, errRawFallback
	}
	return out, nil
}

// uintIn parses a JSON non-negative integer within [0, max].
func (p *rawParser) uintIn(max uint64) (uint64, error) {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '-' {
		return 0, errRawFallback
	}
	start := p.i
	var v uint64
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		d := uint64(p.b[p.i] - '0')
		if v > max/10 || v*10 > max-d {
			return 0, errRawFallback
		}
		v = v*10 + d
		p.i++
	}
	if p.i == start || (p.b[start] == '0' && p.i-start > 1) {
		return 0, errRawFallback
	}
	if p.i < len(p.b) {
		switch p.b[p.i] {
		case '.', 'e', 'E':
			return 0, errRawFallback
		}
	}
	return v, nil
}

func (p *rawParser) boolVal(cur bool) (bool, error) {
	p.ws()
	if p.i+4 <= len(p.b) && string(p.b[p.i:p.i+4]) == "true" {
		p.i += 4
		return true, nil
	}
	if p.i+5 <= len(p.b) && string(p.b[p.i:p.i+5]) == "false" {
		p.i += 5
		return false, nil
	}
	if p.null() {
		return cur, nil
	}
	return false, errRawFallback
}

// strVal parses a string value, with null keeping the current value —
// encoding/json's no-op semantics for null.
func (p *rawParser) strVal(cur string) (string, error) {
	if p.null() {
		return cur, nil
	}
	return p.str()
}

// strsVal parses a []string value (null → nil, [] → empty non-nil, as
// encoding/json decodes).
func (p *rawParser) strsVal() ([]string, error) {
	if p.null() {
		return nil, nil
	}
	if !p.lit('[') {
		return nil, errRawFallback
	}
	if p.lit(']') {
		return []string{}, nil
	}
	var out []string
	for {
		s, err := p.str()
		if err != nil {
			return nil, err
		}
		if !p.check {
			out = append(out, s)
		}
		if p.lit(']') {
			return out, nil
		}
		if !p.lit(',') {
			return nil, errRawFallback
		}
	}
}

// comma consumes the separator after one object member and reports
// whether the object continues (false: it closed).
func (p *rawParser) comma() (bool, error) {
	p.ws()
	if p.i >= len(p.b) {
		return false, errRawFallback
	}
	switch p.b[p.i] {
	case ',':
		p.i++
		return true, nil
	case '}':
		p.i++
		return false, nil
	}
	return false, errRawFallback
}

// rawDecodeRecord strictly parses the parser's line into rec. Any
// deviation from the format returns errRawFallback, and the caller
// re-parses with encoding/json; unknown (and case-variant) keys fall
// back wholesale so encoding/json's lenient field matching stays the
// single source of truth for foreign input. In check mode rec receives
// only the record's numbers and booleans.
func rawDecodeRecord(p *rawParser, rec *JSONRecord) error {
	if !p.lit('{') {
		return errRawFallback
	}
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		p.i++
		return p.end()
	}
	for {
		key, err := p.key()
		if err != nil {
			return err
		}
		if !p.lit(':') {
			return errRawFallback
		}
		switch string(key) {
		case "func":
			rec.Func, err = p.strVal(rec.Func)
		case "seq":
			var v int64
			if p.null() {
				break
			}
			if v, err = p.intIn(minInt, maxInt); err == nil {
				rec.Seq = int(v)
			}
		case "target":
			rec.Target, err = p.strVal(rec.Target)
		case "state":
			rec.State, err = p.strVal(rec.State)
		case "test_part":
			var v int64
			if p.null() {
				break
			}
			if v, err = p.intIn(minInt, maxInt); err == nil {
				rec.TestPart = int(v)
			}
		case "dataset":
			rec.Dataset, err = p.strsVal()
		case "descs":
			rec.Descs, err = p.strsVal()
		case "validity":
			rec.Validity, err = p.strsVal()
		case "invocations":
			var v int64
			if p.null() {
				break
			}
			if v, err = p.intIn(minInt, maxInt); err == nil {
				rec.Invocations = int(v)
			}
		case "returns":
			rec.Returns, err = p.returnsVal()
		case "return_names":
			rec.ReturnNames, err = p.strsVal()
		case "kernel_state":
			rec.KernelState, err = p.strVal(rec.KernelState)
		case "kernel_halt":
			rec.KernelHalt, err = p.strVal(rec.KernelHalt)
		case "cold_resets":
			var v uint64
			if p.null() {
				break
			}
			if v, err = p.uintIn(1<<32 - 1); err == nil {
				rec.ColdResets = uint32(v)
			}
		case "warm_resets":
			var v uint64
			if p.null() {
				break
			}
			if v, err = p.uintIn(1<<32 - 1); err == nil {
				rec.WarmResets = uint32(v)
			}
		case "hm_events":
			rec.HMEvents, err = p.strsVal()
		case "hm":
			rec.HMLog, err = p.hmVal()
		case "part_state":
			rec.PartState, err = p.strVal(rec.PartState)
		case "part_detail":
			rec.PartDetail, err = p.strVal(rec.PartDetail)
		case "sim_crashed":
			rec.SimCrashed, err = p.boolVal(rec.SimCrashed)
		case "crash_reason":
			rec.CrashReason, err = p.strVal(rec.CrashReason)
		case "run_err":
			rec.RunErr, err = p.strVal(rec.RunErr)
		case "cover":
			rec.Cover, err = p.coverVal()
		case "cover_sig":
			rec.CoverSig, err = p.strVal(rec.CoverSig)
		case "divergence":
			rec.Divergence, err = p.divergenceVal()
		case "injection":
			rec.Injection, err = p.injectionVal()
		default:
			return errRawFallback
		}
		if err != nil {
			return err
		}
		more, err := p.comma()
		if err != nil {
			return err
		}
		if !more {
			return p.end()
		}
	}
}

const (
	maxInt = int64(^uint(0) >> 1)
	minInt = -maxInt - 1
)

// end requires the line to hold nothing but trailing whitespace.
func (p *rawParser) end() error {
	p.ws()
	if p.i != len(p.b) {
		return errRawFallback
	}
	return nil
}

func (p *rawParser) returnsVal() ([]int32, error) {
	if p.null() {
		return nil, nil
	}
	if !p.lit('[') {
		return nil, errRawFallback
	}
	if p.lit(']') {
		return []int32{}, nil
	}
	var out []int32
	for {
		v, err := p.intIn(-1<<31, 1<<31-1)
		if err != nil {
			return nil, err
		}
		if !p.check {
			out = append(out, int32(v))
		}
		if p.lit(']') {
			return out, nil
		}
		if !p.lit(',') {
			return nil, errRawFallback
		}
	}
}

func (p *rawParser) coverVal() ([]uint32, error) {
	if p.null() {
		return nil, nil
	}
	if !p.lit('[') {
		return nil, errRawFallback
	}
	if p.lit(']') {
		return []uint32{}, nil
	}
	var out []uint32
	for {
		v, err := p.uintIn(1<<32 - 1)
		if err != nil {
			return nil, err
		}
		if !p.check {
			out = append(out, uint32(v))
		}
		if p.lit(']') {
			return out, nil
		}
		if !p.lit(',') {
			return nil, errRawFallback
		}
	}
}

func (p *rawParser) hmVal() ([]JSONHMEvent, error) {
	if p.null() {
		return nil, nil
	}
	if !p.lit('[') {
		return nil, errRawFallback
	}
	if p.lit(']') {
		return []JSONHMEvent{}, nil
	}
	var out []JSONHMEvent
	for {
		e, err := p.hmEvent()
		if err != nil {
			return nil, err
		}
		if !p.check {
			out = append(out, e)
		}
		if p.lit(']') {
			return out, nil
		}
		if !p.lit(',') {
			return nil, errRawFallback
		}
	}
}

func (p *rawParser) hmEvent() (JSONHMEvent, error) {
	var e JSONHMEvent
	if !p.lit('{') {
		return e, errRawFallback
	}
	if p.lit('}') {
		return e, nil
	}
	for {
		key, err := p.key()
		if err != nil {
			return e, err
		}
		if !p.lit(':') {
			return e, errRawFallback
		}
		switch string(key) {
		case "seq":
			var v uint64
			if p.null() {
				break
			}
			if v, err = p.uintIn(1<<32 - 1); err == nil {
				e.Seq = uint32(v)
			}
		case "t":
			if p.null() {
				break
			}
			e.Time, err = p.intIn(minInt64, maxInt64)
		case "ev":
			var v int64
			if p.null() {
				break
			}
			if v, err = p.intIn(minInt, maxInt); err == nil {
				e.Event = int(v)
			}
		case "act":
			var v int64
			if p.null() {
				break
			}
			if v, err = p.intIn(minInt, maxInt); err == nil {
				e.Action = int(v)
			}
		case "sys":
			e.Sys, err = p.boolVal(e.Sys)
		case "part":
			var v int64
			if p.null() {
				break
			}
			if v, err = p.intIn(minInt, maxInt); err == nil {
				e.Part = int(v)
			}
		case "detail":
			e.Detail, err = p.strVal(e.Detail)
		default:
			return e, errRawFallback
		}
		if err != nil {
			return e, err
		}
		more, err := p.comma()
		if err != nil {
			return e, err
		}
		if !more {
			return e, nil
		}
	}
}

const (
	maxInt64 = int64(1<<63 - 1)
	minInt64 = -maxInt64 - 1
)

func (p *rawParser) divergenceVal() (*Divergence, error) {
	if p.null() {
		return nil, nil
	}
	if !p.lit('{') {
		return nil, errRawFallback
	}
	var d Divergence
	if p.lit('}') {
		return rawKeep(p, &d), nil
	}
	for {
		key, err := p.key()
		if err != nil {
			return nil, err
		}
		if !p.lit(':') {
			return nil, errRawFallback
		}
		switch string(key) {
		case "targets":
			err = p.targetsVal(&d.Targets)
		case "fields":
			d.Fields, err = p.strsVal()
		case "a":
			d.A, err = p.strsVal()
		case "b":
			d.B, err = p.strsVal()
		default:
			return nil, errRawFallback
		}
		if err != nil {
			return nil, err
		}
		more, err := p.comma()
		if err != nil {
			return nil, err
		}
		if !more {
			return rawKeep(p, &d), nil
		}
	}
}

// rawKeep returns a heap copy of a parsed nested object, or nil in
// check mode. Parsing into a local and copying it only here keeps the
// check pass from allocating the object.
func rawKeep[T any](p *rawParser, v *T) *T {
	if p.check {
		return nil
	}
	out := *v
	return &out
}

// targetsVal decodes into the fixed [2]string with encoding/json's array
// semantics: missing trailing elements stay zero, extras are discarded.
func (p *rawParser) targetsVal(dst *[2]string) error {
	if p.null() {
		return nil
	}
	if !p.lit('[') {
		return errRawFallback
	}
	if p.lit(']') {
		return nil
	}
	for n := 0; ; n++ {
		s, err := p.str()
		if err != nil {
			return err
		}
		if n < len(dst) {
			dst[n] = s
		}
		if p.lit(']') {
			return nil
		}
		if !p.lit(',') {
			return errRawFallback
		}
	}
}

func (p *rawParser) injectionVal() (*injectInjection, error) {
	if p.null() {
		return nil, nil
	}
	if !p.lit('{') {
		return nil, errRawFallback
	}
	var inj injectInjection
	if p.lit('}') {
		return rawKeep(p, &inj), nil
	}
	for {
		key, err := p.key()
		if err != nil {
			return nil, err
		}
		if !p.lit(':') {
			return nil, errRawFallback
		}
		switch string(key) {
		case "site":
			inj.Site, err = p.strVal(inj.Site)
		case "phase":
			inj.Phase, err = p.strVal(inj.Phase)
		case "bit":
			var v uint64
			if p.null() {
				break
			}
			if v, err = p.uintIn(255); err == nil {
				inj.Bit = uint8(v)
			}
		case "frame":
			var v int64
			if p.null() {
				break
			}
			if v, err = p.intIn(minInt, maxInt); err == nil {
				inj.Frame = int(v)
			}
		case "addr":
			if p.null() {
				break
			}
			inj.Addr, err = p.uintIn(1<<64 - 1)
		case "cycle":
			if p.null() {
				break
			}
			inj.Cycle, err = p.intIn(minInt64, maxInt64)
		case "applied":
			inj.Applied, err = p.boolVal(inj.Applied)
		case "outcome":
			inj.Outcome, err = p.strVal(inj.Outcome)
		case "delta":
			inj.Delta, err = p.strVal(inj.Delta)
		default:
			return nil, errRawFallback
		}
		if err != nil {
			return nil, err
		}
		more, err := p.comma()
		if err != nil {
			return nil, err
		}
		if !more {
			return rawKeep(p, &inj), nil
		}
	}
}
