package campaign

import (
	"fmt"
	"io"

	"xmrobust/internal/apispec"
	"xmrobust/internal/cover"
	"xmrobust/internal/dict"
	"xmrobust/internal/inject"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// JSONRecord is the serialised form of one test's execution log — the
// per-test record the paper's shell-script harness appended to the
// campaign log for the offline Log Analysis phase. It is self-contained:
// Result reconstructs the in-memory execution log from it, so a streamed
// campaign's analysis can run entirely off the shard files.
type JSONRecord struct {
	Func string `json:"func"`
	// Seq is the test's position in campaign order: the index into the
	// generated dataset list. Shard files interleave arbitrarily; sorting
	// records by Seq restores campaign order (see MergeShards).
	Seq int `json:"seq"`
	// Target names the execution backend that produced the log; State is
	// the phantom system state the test fired in (§V extension, empty
	// for the nominal data-type fault model).
	Target      string   `json:"target,omitempty"`
	State       string   `json:"state,omitempty"`
	TestPart    int      `json:"test_part,omitempty"`
	Dataset     []string `json:"dataset"`
	Descs       []string `json:"descs,omitempty"`
	Validity    []string `json:"validity,omitempty"`
	Invocations int      `json:"invocations"`
	Returns     []int32  `json:"returns"`
	ReturnNames []string `json:"return_names"`
	KernelState string   `json:"kernel_state"`
	KernelHalt  string   `json:"kernel_halt,omitempty"`
	ColdResets  uint32   `json:"cold_resets"`
	WarmResets  uint32   `json:"warm_resets"`
	// HMEvents is the human-readable health-monitor log; HMLog carries the
	// same entries structured, for reconstruction.
	HMEvents    []string      `json:"hm_events,omitempty"`
	HMLog       []JSONHMEvent `json:"hm,omitempty"`
	PartState   string        `json:"part_state"`
	PartDetail  string        `json:"part_detail,omitempty"`
	SimCrashed  bool          `json:"sim_crashed"`
	CrashReason string        `json:"crash_reason,omitempty"`
	RunErr      string        `json:"run_err,omitempty"`
	// Cover is the kernel edge coverage of the run in sparse form
	// (ascending site identifiers), present when coverage collection was
	// on; CoverSig is its stable signature, the cluster key of
	// behaviourally identical tests.
	Cover    []uint32 `json:"cover,omitempty"`
	CoverSig string   `json:"cover_sig,omitempty"`
	// Divergence is the diff target's disagreement record (nil outside
	// diff campaigns and on agreeing tests).
	Divergence *Divergence `json:"divergence,omitempty"`
	// Injection is the SEU record of an inject-target run: where the
	// schedule flipped a bit and how the injected run's observables
	// compared to the clean reference leg (nil outside inject campaigns
	// and on tests the schedule left clean).
	Injection *inject.Injection `json:"injection,omitempty"`
}

// JSONHMEvent is one structured health-monitor log entry.
type JSONHMEvent struct {
	Seq    uint32 `json:"seq"`
	Time   int64  `json:"t"`
	Event  int    `json:"ev"`
	Action int    `json:"act"`
	Sys    bool   `json:"sys,omitempty"`
	Part   int    `json:"part"`
	Detail string `json:"detail,omitempty"`
}

// ToRecord serialises one execution log as the campaign-log record at
// position seq.
func ToRecord(seq int, r Result) JSONRecord {
	// A fresh scratch per call keeps the historical behaviour: every
	// slice in the returned record is caller-owned.
	var s recordScratch
	return s.toRecord(seq, r)
}

// recordScratch owns the slice capacity behind a shard writer's records:
// toRecord hands out records whose slices alias the scratch, so one
// encode-and-discard cycle per record stops allocating in steady state.
// The aliased record is only valid until the next toRecord call.
type recordScratch struct {
	dataset, descs, validity []string
	returns                  []int32
	returnNames              []string
	hmEvents                 []string
	hmLog                    []JSONHMEvent
}

// toRecord is ToRecord with scratch-backed slices. Field-absence
// semantics are identical: an empty field stays nil — never a non-nil
// empty slice — so the wire bytes match ToRecord exactly.
func (s *recordScratch) toRecord(seq int, r Result) JSONRecord {
	out := JSONRecord{
		Func:        r.Dataset.Func.Name,
		Seq:         seq,
		Target:      r.Target,
		State:       r.Dataset.State,
		TestPart:    r.TestPartition,
		Invocations: r.Invocations,
		KernelState: r.KernelState.String(),
		KernelHalt:  r.KernelHalt,
		ColdResets:  r.ColdResets,
		WarmResets:  r.WarmResets,
		PartState:   r.PartState.String(),
		PartDetail:  r.PartDetail,
		SimCrashed:  r.SimCrashed,
		CrashReason: r.CrashReason,
		RunErr:      r.RunErr,
	}
	if out.Target == target.SimName {
		// The default backend serialises as the field's absence: sim
		// campaign logs stay byte-identical to pre-target-layer logs,
		// and Result restores the default on read.
		out.Target = ""
	}
	if len(r.Resolved) > 0 {
		s.dataset, s.descs, s.validity = s.dataset[:0], s.descs[:0], s.validity[:0]
		for _, v := range r.Resolved {
			s.dataset = append(s.dataset, v.Raw)
			s.descs = append(s.descs, v.Desc)
			s.validity = append(s.validity, v.Validity.String())
		}
		out.Dataset, out.Descs, out.Validity = s.dataset, s.descs, s.validity
	}
	if len(r.Returns) > 0 {
		s.returns, s.returnNames = s.returns[:0], s.returnNames[:0]
		for _, rc := range r.Returns {
			s.returns = append(s.returns, int32(rc))
			s.returnNames = append(s.returnNames, rc.String())
		}
		out.Returns, out.ReturnNames = s.returns, s.returnNames
	}
	if len(r.HMEvents) > 0 {
		s.hmEvents, s.hmLog = s.hmEvents[:0], s.hmLog[:0]
		for _, e := range r.HMEvents {
			s.hmEvents = append(s.hmEvents, e.String())
			s.hmLog = append(s.hmLog, JSONHMEvent{
				Seq: e.Seq, Time: int64(e.Time), Event: int(e.Event), Action: int(e.Action),
				Sys: e.SystemScope, Part: e.PartitionID, Detail: e.Detail,
			})
		}
		out.HMEvents, out.HMLog = s.hmEvents, s.hmLog
	}
	if r.Cover != nil {
		out.Cover = r.Cover.Sites()
		out.CoverSig = fmt.Sprintf("%016x", r.Cover.Signature())
	}
	out.Divergence = r.Divergence
	out.Injection = r.Injection
	return out
}

// Result reconstructs the in-memory execution log from a record. The
// hypercall signature is resolved against h (default spec when nil);
// records of hypercalls absent from the spec keep a bare function so
// harness-error records still classify.
func (rec JSONRecord) Result(h *apispec.Header) (Result, error) {
	if h == nil {
		h = apispec.Default()
	}
	f, ok := h.Function(rec.Func)
	if !ok {
		f = apispec.Function{Name: rec.Func}
	}
	r := Result{
		Target:        rec.Target,
		TestPartition: rec.TestPart,
		Invocations:   rec.Invocations,
		KernelHalt:    rec.KernelHalt,
		ColdResets:    rec.ColdResets,
		WarmResets:    rec.WarmResets,
		PartDetail:    rec.PartDetail,
		SimCrashed:    rec.SimCrashed,
		CrashReason:   rec.CrashReason,
		RunErr:        rec.RunErr,
		Divergence:    rec.Divergence,
		Injection:     rec.Injection,
	}
	if r.Target == "" {
		// Records without a target field are the default backend's —
		// including every log written before the target layer existed.
		r.Target = target.SimName
	}
	// The state/return vocabularies parse through the generated inverse
	// maps xm shares with every campaign-log reader; unknown names keep
	// the zero value, the historic lenient behaviour.
	if ks, ok := xm.ParseKState(rec.KernelState); ok {
		r.KernelState = ks
	}
	if ps, ok := xm.ParsePState(rec.PartState); ok {
		r.PartState = ps
	}
	values := make([]dict.Value, len(rec.Dataset))
	for i, raw := range rec.Dataset {
		v := dict.Value{Raw: raw}
		if i < len(rec.Descs) {
			v.Desc = rec.Descs[i]
		}
		if i < len(rec.Validity) {
			val, err := dict.ParseValidity(rec.Validity[i])
			if err != nil {
				return Result{}, fmt.Errorf("campaign: record seq %d: %w", rec.Seq, err)
			}
			v.Validity = val
		}
		values[i] = v
		r.Resolved = append(r.Resolved, dict.Resolved{Value: v})
	}
	r.Dataset = testgen.Dataset{Func: f, Index: rec.Seq, Values: values, State: rec.State}
	for _, rc := range rec.Returns {
		r.Returns = append(r.Returns, xm.RetCode(rc))
	}
	for _, e := range rec.HMLog {
		r.HMEvents = append(r.HMEvents, xm.HMLogEntry{
			Seq: e.Seq, Time: xm.Time(e.Time), Event: xm.HMEvent(e.Event),
			Action: xm.HMAction(e.Action), SystemScope: e.Sys,
			PartitionID: e.Part, Detail: e.Detail,
		})
	}
	if len(rec.Cover) > 0 {
		r.Cover = cover.FromSites(rec.Cover)
	}
	return r, nil
}

// WriteJSON streams the campaign log as JSON Lines: one self-contained
// record per test, greppable and loadable without holding the whole
// campaign in memory. The records are encoded by the Codec, one Write
// each, so the log is byte-identical to the merged shards of the same
// campaign run with a checkpoint.
func WriteJSON(w io.Writer, results []Result) error {
	var (
		scr recordScratch
		buf []byte
		err error
	)
	for i := range results {
		rec := scr.toRecord(i, results[i])
		if buf, err = (Codec{}).AppendEncode(buf[:0], &rec); err == nil {
			buf = append(buf, '\n')
			_, err = w.Write(buf)
		}
		if err != nil {
			return fmt.Errorf("campaign: writing test %d: %w", i, err)
		}
	}
	return nil
}
