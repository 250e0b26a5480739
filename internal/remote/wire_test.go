package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/dict"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// fullRequest is a request with every wire field set: flags, a known
// and an unknown hypercall, a state, and values of every validity.
func fullRequest(h *apispec.Header) execRequest {
	known, _ := h.Function("XM_set_timer")
	return execRequest{
		ID:   1 << 40,
		Spec: target.RunSpec{MAFs: 300, Stress: true, Coverage: true},
		Tests: []testgen.Dataset{
			{Func: known, Index: 2661, State: "idle-partition", Values: []dict.Value{
				{Raw: "0", Desc: "zero", Validity: dict.Depends},
				{Raw: "VALID", Desc: "a valid pointer", Validity: dict.Valid},
				{Raw: "-1", Desc: "", Validity: dict.Invalid},
			}},
			{Func: apispec.Function{Name: "XM_not_in_the_spec"}, Index: 0},
		},
	}
}

// roundTrip encodes req and decodes it against h.
func roundTrip(t *testing.T, req execRequest, h *apispec.Header) execRequest {
	t.Helper()
	got, err := decodeRequest(appendRequest(nil, &req), h)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRequestRoundTrip: every field of a request survives the binary
// encoding, and each xm.FaultSet flag travels on its own — a fault flag
// added later without a wire bit fails here instead of silently running
// every remote test on the wrong kernel version.
func TestRequestRoundTrip(t *testing.T) {
	h := apispec.Default()
	req := fullRequest(h)
	if got := roundTrip(t, req, h); !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
	}

	ft := reflect.TypeOf(xm.FaultSet{})
	for i := range ft.NumField() {
		f := ft.Field(i)
		if f.Type.Kind() != reflect.Bool {
			t.Fatalf("xm.FaultSet.%s is a %s; teach the wire encoding to carry it", f.Name, f.Type)
		}
		one := req
		reflect.ValueOf(&one.Spec.Faults).Elem().Field(i).SetBool(true)
		if got := roundTrip(t, one, h); got.Spec.Faults != one.Spec.Faults {
			t.Errorf("FaultSet.%s: decoded %+v, want %+v", f.Name, got.Spec.Faults, one.Spec.Faults)
		}
	}
	for _, spec := range []target.RunSpec{{}, {Stress: true}, {Coverage: true}, {Faults: xm.PatchedFaults(), MAFs: 1}} {
		one := execRequest{ID: 3, Spec: spec}
		if got := roundTrip(t, one, h); !reflect.DeepEqual(got, one) {
			t.Errorf("spec %+v decoded as %+v", spec, got.Spec)
		}
	}
}

// TestRespHeaderRoundTrip pins the response header encoding, and that
// the records after it come back untouched.
func TestRespHeaderRoundTrip(t *testing.T) {
	for _, hdr := range []respHeader{{ID: 9, N: 2}, {ID: 1 << 50, Err: "remote: bad request frame: truncated field"}} {
		records := bytes.Repeat([]byte("{}\n"), hdr.N)
		got, rest, err := decodeRespHeader(append(appendRespHeader(nil, hdr), records...))
		if err != nil {
			t.Fatal(err)
		}
		if got != hdr || !bytes.Equal(rest, records) {
			t.Errorf("decoded %+v with %q, want %+v with %q", got, rest, hdr, records)
		}
	}
}

// TestRequestFrameRefusesMalformed: a hostile or damaged request frame
// is an error naming the defect — never a panic, never an allocation
// sized by a count the frame cannot hold.
func TestRequestFrameRefusesMalformed(t *testing.T) {
	h := apispec.Default()
	good := appendRequest(nil, &execRequest{ID: 5, Spec: target.RunSpec{MAFs: 2},
		Tests: []testgen.Dataset{{Func: apispec.Function{Name: "XM_get_time"}, Values: []dict.Value{{Raw: "1"}}}}})
	header := func(ntests uint64) []byte {
		b := binary.AppendUvarint(nil, 5)
		b = append(b, 0)
		b = binary.AppendUvarint(b, 2)
		return binary.AppendUvarint(b, ntests)
	}
	badValidity := bytes.Clone(good)
	badValidity[len(badValidity)-1] = 3
	cases := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"empty", nil, "truncated"},
		{"truncated", good[:8], "truncated"},
		{"short of its values", good[:len(good)-3], "exceeds"},
		{"trailing", append(bytes.Clone(good), 0), "trailing"},
		{"unknown flags", append(binary.AppendUvarint(nil, 5), 0x80, 2, 0), "flag"},
		{"unknown validity", badValidity, "validity"},
		{"huge test count", header(1 << 40), "exceeds"},
		{"huge string", append(header(1), 0, 0xff, 0xff, 0xff, 0x7f), "truncated"},
		{"overflowing uvarint", bytes.Repeat([]byte{0xff}, 11), "overflow"},
		{"mafs above the bound", appendRequest(nil, &execRequest{ID: 5, Spec: target.RunSpec{MAFs: campaign.MaxMAFs + 1}}),
			fmt.Sprintf("mafs %d exceeds the maximum of %d", campaign.MaxMAFs+1, campaign.MaxMAFs)},
	}
	for _, c := range cases {
		req, err := decodeRequest(c.frame, h)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one mentioning %q", c.name, err, c.want)
		}
		if req.Tests != nil {
			t.Errorf("%s: refused frame still returned %d tests", c.name, len(req.Tests))
		}
	}
	if req, _ := decodeRequest(good[:len(good)-1], h); req.ID != 5 {
		t.Errorf("refusal carries request ID %d, want 5 (the client matches the error to its lease)", req.ID)
	}
	// A million claimed tests would be ~150 MB of datasets if the count
	// were trusted; the refusal costs an error message.
	refusalAlloc(t, "a frame claiming 2^20 tests", header(1<<20), h)
}

// TestRequestFrameDecodeLimit: a well-formed frame whose counts its own
// bytes can hold, but whose tests or values would decode to more than
// maxDecode, is refused before the slice is allocated — a ~2 MB frame
// must not make the worker allocate ~40 times its size.
func TestRequestFrameDecodeLimit(t *testing.T) {
	h := apispec.Default()
	frame := func(ntests, nvalues int) []byte {
		b := binary.AppendUvarint(nil, 5)
		b = append(b, 0)
		b = binary.AppendUvarint(b, 2)
		b = binary.AppendUvarint(b, uint64(ntests))
		for i := range ntests {
			b = append(b, 0, 0, 0) // position, func, state
			if i > 0 {
				b = append(b, 0) // no values
				continue
			}
			b = binary.AppendUvarint(b, uint64(nvalues))
			for range nvalues {
				b = append(b, 0, 0, 0) // raw, desc, validity
			}
		}
		return b
	}
	tests := int(maxDecode/unsafe.Sizeof(testgen.Dataset{})) + 1
	values := int(maxDecode/unsafe.Sizeof(dict.Value{})) + 1
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{fmt.Sprintf("%d minimal tests", tests), frame(tests, 0)},
		{fmt.Sprintf("a test of %d minimal values", values), frame(1, values)},
	} {
		if len(c.frame) > maxFrame/8 {
			t.Fatalf("%s: %d-byte frame; the limit should bite far below the frame limit", c.name, len(c.frame))
		}
		_, err := decodeRequest(c.frame, h)
		if err == nil || !strings.Contains(err.Error(), "decode limit") {
			t.Errorf("%s: err %v, want a decode-limit refusal", c.name, err)
		}
		refusalAlloc(t, c.name, c.frame, h)
	}
	// The budget spans the whole request: every slice is charged to it,
	// so many slices that each fit cannot add up past it.
	r := wireReader{b: []byte{2, 2, 2, 0, 0, 0, 0, 0, 0}, budget: 200}
	for i, want := range []int{2, 2, 0} {
		if got := r.sliceLen(1, 40); got != want {
			t.Fatalf("slice %d of two 40-byte elements against a 200-byte budget: length %d, want %d", i, got, want)
		}
	}
	if r.err == nil || !strings.Contains(r.err.Error(), "decode limit") {
		t.Errorf("third 80-byte slice against a 200-byte budget: err %v, want a decode-limit refusal", r.err)
	}
}

// refusalAlloc decodes a frame that must be refused before its slices
// are allocated, and fails if the refusal allocated more than 64 KiB.
func refusalAlloc(t *testing.T, name string, frame []byte, h *apispec.Header) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeRequest(frame, h)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("%s: accepted", name)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("refusing %s (%d bytes) allocated %d bytes", name, len(frame), n)
	}
}

// TestRefusesOldProtocolWorker: a worker whose hello speaks protocol 1
// (JSON request frames) is refused at dial time rather than misparsed.
func TestRefusesOldProtocolWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			hello, _ := json.Marshal(Hello{Proto: 1, Target: "sim"})
			WriteFrame(conn, hello)
			conn.Close()
		}
	}()
	tgt, err := target.New("remote:"+ln.Addr().String(), target.Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = tgt.Provision(1)
	if err == nil || !strings.Contains(err.Error(), "speaks protocol 1") {
		t.Fatalf("provisioning against a protocol-1 worker: %v, want a \"speaks protocol 1\" refusal", err)
	}
}

// FuzzRequestFrame feeds arbitrary bytes to the request decoder — the
// worker's trust boundary. It must never panic or accept trailing bytes,
// an accepted request must hold no more tests and values than its bytes
// can encode, and whatever it accepts must survive a re-encode
// unchanged. (What a request may allocate is capped at maxDecode;
// TestRequestFrameDecodeLimit pins that, with frames larger than a
// fuzz input.)
func FuzzRequestFrame(f *testing.F) {
	h := apispec.Default()
	full := fullRequest(h)
	f.Add(appendRequest(nil, &full))
	f.Add(appendRequest(nil, &execRequest{ID: 1, Spec: target.RunSpec{MAFs: 2}}))
	f.Add(appendRequest(nil, &execRequest{ID: 2, Spec: target.RunSpec{Faults: xm.PatchedFaults(), MAFs: 2},
		Tests: []testgen.Dataset{{Func: apispec.Function{Name: "XM_get_time"}, Index: 7}}}))
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := decodeRequest(frame, h)
		if err != nil {
			return
		}
		values := 0
		for _, ds := range req.Tests {
			values += len(ds.Values)
		}
		if len(req.Tests)*minTestBytes+values*minValueBytes > len(frame) {
			t.Fatalf("%d tests of %d values decoded from %d bytes", len(req.Tests), values, len(frame))
		}
		again, err := decodeRequest(appendRequest(nil, &req), h)
		if err != nil {
			t.Fatalf("re-encoded request refused: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("re-encode changed the request:\n got %+v\nwant %+v", again, req)
		}
		decodeRespHeader(frame)
	})
}
