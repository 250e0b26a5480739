// Package remote is the distributed execution layer: it puts any local
// target behind a TCP connection (Server, served by cmd/xmworker) and
// registers the "remote:<addr>[,<addr>...]" campaign backend that fans
// leases across those workers (client.go). The wire carries what the
// execution seam already made serialisable — datasets ship as resolved
// dict values, results return as campaign-log records through the raw
// codec — so a remote campaign's merged log is byte-identical to the
// same campaign executed in-process: the record round-trip is a fixed
// point (see FuzzJSONRecordRoundTrip) and duplicated executions dedupe
// by seq at merge time.
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload, written with one Write. A connection opens with the worker's
// JSON Hello; after that, request and response frames use the compact
// binary encoding below — uvarints, uvarint-length-prefixed strings and
// one flags byte:
//
//	request  = id flags mafs ntests test*
//	test     = pos func state nvalues value*
//	value    = raw desc validity
//	response = id nrecords err record*
//
// where flags, mafs, ntests, nvalues, validity and nrecords are as
// named, func, state, raw, desc and err are strings, and each record is
// one raw-codec campaign-log line ending in '\n'.
package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/dict"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// ProtoVersion is the wire protocol version; both ends refuse a
// mismatch rather than misparse each other. Version 2 replaced the JSON
// request frame and response header with the binary encoding.
const ProtoVersion = 2

// maxFrame bounds one length-prefixed frame — far above any real lease
// but small enough that a corrupt length prefix cannot ask for the moon.
const maxFrame = 64 << 20

// frameOverhead is the per-frame framing cost (the 4-byte length
// prefix), counted alongside payload bytes in the wire-byte metrics.
const frameOverhead = 4

// beginFrame starts a frame in buf's storage: the length prefix is
// reserved, and the payload is appended after it.
func beginFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// sendFrame fills in the length prefix of a frame started by beginFrame
// and writes prefix and payload together, with one Write.
func sendFrame(w io.Writer, frame []byte) error {
	n := len(frame) - frameOverhead
	if n > maxFrame {
		return fmt.Errorf("remote: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// WriteFrame writes one length-prefixed frame: a 4-byte big-endian
// payload length followed by the payload, in one Write.
func WriteFrame(w io.Writer, payload []byte) error {
	frame := append(beginFrame(make([]byte, 0, frameOverhead+len(payload))), payload...)
	return sendFrame(w, frame)
}

// readFrame reads one length-prefixed frame from a connection's
// buffered reader into buf's storage when it is large enough (a fresh
// allocation otherwise), refusing a length past the frame limit before
// allocating for it.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := br.Peek(frameOverhead)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	br.Discard(frameOverhead) // cannot fail: Peek buffered these bytes
	if n > maxFrame {
		return nil, fmt.Errorf("remote: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Hello is the first frame a worker sends on every connection: its
// protocol version and the target spec it executes on. The client
// refuses a version or target mismatch — mixing targets would splice
// two backends' logs into one campaign. Hello stays JSON in every
// protocol version, so a version mismatch is always readable.
type Hello struct {
	Proto  int    `json:"proto"`
	Target string `json:"target"`
}

// execRequest is one lease on the wire: an ID, which its response
// carries back and the client checks against its request, the run
// parameters and the tests to execute. Of Spec only Faults, MAFs, Stress and
// Coverage travel: datasets ship resolved, the worker supplies Header
// and Dict from its own defaults, and Inject is never set at this layer
// (SEU composites run worker-side, inside the worker's own target spec).
// Each test's Index is its global campaign position; its hypercall
// ships by name and the worker resolves the signature from its spec
// header, exactly as the campaign-log reader does.
type execRequest struct {
	ID    uint64
	Spec  target.RunSpec
	Tests []testgen.Dataset
}

// respHeader opens a response frame; N campaign-log record lines
// (raw-codec JSON Lines, in request order) follow it. Err is set only
// for malformed requests — per-test failures travel inside the records
// as RunErr, like every other harness error.
type respHeader struct {
	ID  uint64
	N   int
	Err string
}

// Request flag bits: the RunSpec and xm.FaultSet booleans.
const (
	flagStress = 1 << iota
	flagCoverage
	flagResetSystemModeCheck
	flagTimerMinInterval
	flagTimerNegativeCheck
	flagMulticallRemoved

	knownFlags = 1<<iota - 1
)

// Minimum encoded sizes, against which decoded counts are checked
// before anything is allocated for them: a test is at least a position,
// two empty strings and a value count; a value two empty strings and a
// validity; a record its newline.
const (
	minTestBytes   = 4
	minValueBytes  = 3
	minRecordBytes = 1
)

// maxDecode bounds the test and value slices one request may decode to.
// In memory a test or value is up to ~40 times its minimal encoding, so
// counts the frame's bytes can hold could still ask a 64 MiB frame for
// gigabytes. With the budget, a request costs at most maxDecode of
// slices plus its strings, which are copies of the frame's own bytes.
const maxDecode = maxFrame

// errTruncated reports a field running past the end of its frame.
var errTruncated = errors.New("truncated field")

// appendRequest appends req's binary encoding to b. A negative MAFs
// travels as 0: either runs no major frame.
func appendRequest(b []byte, req *execRequest) []byte {
	b = binary.AppendUvarint(b, req.ID)
	b = append(b, requestFlags(req.Spec))
	b = binary.AppendUvarint(b, uint64(max(req.Spec.MAFs, 0)))
	b = binary.AppendUvarint(b, uint64(len(req.Tests)))
	for i := range req.Tests {
		ds := &req.Tests[i]
		b = binary.AppendUvarint(b, uint64(ds.Index))
		b = appendString(b, ds.Func.Name)
		b = appendString(b, ds.State)
		b = binary.AppendUvarint(b, uint64(len(ds.Values)))
		for _, v := range ds.Values {
			b = appendString(b, v.Raw)
			b = appendString(b, v.Desc)
			b = binary.AppendUvarint(b, uint64(v.Validity))
		}
	}
	return b
}

func requestFlags(spec target.RunSpec) byte {
	var f byte
	set := func(on bool, bit byte) {
		if on {
			f |= bit
		}
	}
	set(spec.Stress, flagStress)
	set(spec.Coverage, flagCoverage)
	set(spec.Faults.ResetSystemModeCheck, flagResetSystemModeCheck)
	set(spec.Faults.TimerMinInterval, flagTimerMinInterval)
	set(spec.Faults.TimerNegativeCheck, flagTimerNegativeCheck)
	set(spec.Faults.MulticallRemoved, flagMulticallRemoved)
	return f
}

// decodeRequest decodes a request frame, resolving each hypercall
// against h by name (a bare Function when the spec does not know it,
// the campaign-log reader's lenient behaviour). The returned ID is valid
// whenever it could be read, so a refusal still answers the right
// request. Unknown flag bits, out-of-range numbers (mafs above
// campaign.MaxMAFs among them) and trailing bytes are refused.
func decodeRequest(p []byte, h *apispec.Header) (execRequest, error) {
	r := wireReader{b: p, budget: maxDecode}
	var req execRequest
	req.ID = r.uvarint()
	flags := r.byte()
	if r.err == nil && flags&^knownFlags != 0 {
		r.fail(fmt.Errorf("unknown flag bits %#x", flags&^knownFlags))
	}
	req.Spec.Stress = flags&flagStress != 0
	req.Spec.Coverage = flags&flagCoverage != 0
	req.Spec.Faults.ResetSystemModeCheck = flags&flagResetSystemModeCheck != 0
	req.Spec.Faults.TimerMinInterval = flags&flagTimerMinInterval != 0
	req.Spec.Faults.TimerNegativeCheck = flags&flagTimerNegativeCheck != 0
	req.Spec.Faults.MulticallRemoved = flags&flagMulticallRemoved != 0
	req.Spec.MAFs = r.int()
	if req.Spec.MAFs > campaign.MaxMAFs {
		r.fail(fmt.Errorf("mafs %d exceeds the maximum of %d", req.Spec.MAFs, campaign.MaxMAFs))
	}
	if n := r.sliceLen(minTestBytes, unsafe.Sizeof(testgen.Dataset{})); n > 0 {
		req.Tests = make([]testgen.Dataset, n)
	}
	for i := range req.Tests {
		ds := &req.Tests[i]
		ds.Index = r.int()
		name := r.string()
		ds.State = r.string()
		if n := r.sliceLen(minValueBytes, unsafe.Sizeof(dict.Value{})); n > 0 {
			ds.Values = make([]dict.Value, n)
		}
		for j := range ds.Values {
			v := &ds.Values[j]
			v.Raw = r.string()
			v.Desc = r.string()
			if val := r.uvarint(); val <= uint64(dict.Invalid) {
				v.Validity = dict.Validity(val)
			} else {
				r.fail(fmt.Errorf("test %d: unknown validity %d", ds.Index, val))
			}
		}
		if r.err != nil {
			break
		}
		f, ok := h.Function(name)
		if !ok {
			f = apispec.Function{Name: name}
		}
		ds.Func = f
	}
	if err := r.done(); err != nil {
		return execRequest{ID: req.ID}, fmt.Errorf("remote: bad request frame: %w", err)
	}
	return req, nil
}

// appendRespHeader appends a response header's binary encoding to b.
func appendRespHeader(b []byte, hdr respHeader) []byte {
	b = binary.AppendUvarint(b, hdr.ID)
	b = binary.AppendUvarint(b, uint64(hdr.N))
	return appendString(b, hdr.Err)
}

// decodeRespHeader decodes the header that opens a response frame and
// returns it with the record bytes that follow.
func decodeRespHeader(p []byte) (respHeader, []byte, error) {
	r := wireReader{b: p}
	var hdr respHeader
	hdr.ID = r.uvarint()
	hdr.N = r.count(minRecordBytes)
	hdr.Err = r.string()
	if r.err != nil {
		return respHeader{}, nil, fmt.Errorf("remote: bad response header: %w", r.err)
	}
	return hdr, r.b, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// wireReader decodes binary frame fields, latching the first error:
// after a failure every read returns a zero value, so a decoder checks
// the error once, and a zero count allocates nothing. budget is what
// sliceLen may still grant, in bytes.
type wireReader struct {
	b      []byte
	err    error
	budget uintptr
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		if n == 0 {
			r.fail(errTruncated)
		} else {
			r.fail(errors.New("uvarint overflows 64 bits"))
		}
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail(errTruncated)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// int reads a uvarint that must fit a non-negative int.
func (r *wireReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail(fmt.Errorf("number %d out of range", v))
		return 0
	}
	return int(v)
}

// count reads an element count and refuses one the remaining bytes
// cannot hold at minBytes per element, before anything is allocated.
func (r *wireReader) count(minBytes int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)/minBytes) {
		r.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}

// sliceLen reads the length of a slice of size-byte elements and charges
// the slice to the budget. Like count it refuses, before anything is
// allocated, a length the bytes left cannot hold; it also refuses one
// the budget cannot pay for.
func (r *wireReader) sliceLen(minBytes int, size uintptr) int {
	n := r.count(minBytes)
	if r.err == nil && uintptr(n) > r.budget/size {
		r.fail(fmt.Errorf("%d elements of %d bytes exceed the %d-byte decode limit", n, size, maxDecode))
		return 0
	}
	r.budget -= uintptr(n) * size
	return n
}

func (r *wireReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail(errTruncated)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// done reports the decode error, or refuses bytes left over after the
// last field.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.b)))
	}
	return r.err
}
