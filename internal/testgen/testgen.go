// Package testgen implements the test-generation pipeline of paper
// Fig. 4/Fig. 5: from a hypercall signature (apispec) and the data-type
// dictionaries (dict), it builds the test_value_matrix, enumerates every
// dataset combination (Eq. 1: combinations = Π n_i over the parameters),
// and renders each dataset as a mutant source — the single-hypercall fault
// placeholder compiled into the test partition.
package testgen

import (
	"fmt"
	"math"
	"strings"

	"xmrobust/internal/apispec"
	"xmrobust/internal/dict"
)

// Matrix is the test_value_matrix of paper Fig. 5: one row of candidate
// values per parameter of the hypercall under test.
type Matrix struct {
	Func apispec.Function
	Rows [][]dict.Value
}

// BuildMatrix resolves each parameter of the function to its value row:
// the named override set when the spec requests one, the parameter type's
// dictionary set otherwise.
func BuildMatrix(f apispec.Function, d *dict.Dictionary) (Matrix, error) {
	m := Matrix{Func: f}
	for _, p := range f.Params {
		var vals []dict.Value
		if p.ValueSet != "" {
			ns, ok := d.Named(p.ValueSet)
			if !ok {
				return Matrix{}, fmt.Errorf("testgen: %s/%s: unknown value set %q", f.Name, p.Name, p.ValueSet)
			}
			vals = ns.Values
		} else {
			ts, ok := d.Type(p.Type)
			if !ok {
				return Matrix{}, fmt.Errorf("testgen: %s/%s: no dictionary for type %q", f.Name, p.Name, p.Type)
			}
			vals = ts.Values
		}
		if len(vals) == 0 {
			return Matrix{}, fmt.Errorf("testgen: %s/%s: empty value row", f.Name, p.Name)
		}
		m.Rows = append(m.Rows, vals)
	}
	return m, nil
}

// Combinations returns Eq. 1 of the paper: the product of the row sizes.
// A parameter-less hypercall has exactly one (empty) dataset. The product
// saturates at the platform's MaxInt instead of wrapping, so a huge
// dictionary cannot silently corrupt the campaign total that progress
// reporting and checkpointing are keyed on.
func (m Matrix) Combinations() int {
	n := m.Combinations64()
	if n > math.MaxInt {
		return math.MaxInt
	}
	return int(n)
}

// Combinations64 computes Eq. 1 in 64 bits, saturating at MaxInt64 on
// overflow.
func (m Matrix) Combinations64() int64 {
	n := int64(1)
	for _, row := range m.Rows {
		k := int64(len(row))
		if k == 0 {
			return 0
		}
		if n > math.MaxInt64/k {
			return math.MaxInt64
		}
		n *= k
	}
	return n
}

// Dataset is one generated test dataset: one value per parameter.
type Dataset struct {
	Func   apispec.Function
	Index  int // position in generation order
	Values []dict.Value
	// State names the phantom system state the test fires in ("" for the
	// nominal data-type fault model). The §V extension varies the kernel
	// state instead of the (non-existent) arguments of parameter-less
	// hypercalls; execution targets that honour states drive the system
	// into the named state before arming the test call.
	State string
}

// String renders the dataset as the call it encodes.
func (ds Dataset) String() string {
	args := make([]string, 0, len(ds.Values))
	for _, v := range ds.Values {
		args = append(args, v.String())
	}
	call := ds.Func.Name + "(" + strings.Join(args, ", ") + ")"
	if ds.State != "" {
		call += " @ " + ds.State
	}
	return call
}

// InvalidParams returns the names of parameters carrying a
// definitely-invalid dictionary value, in parameter order — the input to
// the blame analysis of the log-analysis phase.
func (ds Dataset) InvalidParams() []string {
	var out []string
	for i, v := range ds.Values {
		if v.Validity == dict.Invalid && i < len(ds.Func.Params) {
			out = append(out, ds.Func.Params[i].Name)
		}
	}
	return out
}

// datasetAt decodes the dataset at the given rank of the matrix's
// deterministic enumeration — the mixed-radix decomposition of the
// paper's nested generator loops, with the last parameter varying
// fastest. It is the single definition of dataset order every plan
// strategy addresses into.
//
// The values are filled straight from the rank, last parameter first,
// as TupleAt decodes it; the value slice is the one allocation, kept by
// the Result that carries the dataset.
func (m Matrix) datasetAt(rank int64) Dataset {
	vals := make([]dict.Value, len(m.Rows))
	r := rank
	for i := len(m.Rows) - 1; i >= 0; i-- {
		n := int64(len(m.Rows[i]))
		vals[i] = m.Rows[i][r%n]
		r /= n
	}
	return Dataset{Func: m.Func, Index: int(rank), Values: vals}
}

// TupleAt decodes a rank into its value-index tuple (one index per
// parameter) — the inverse of RankOf.
func (m Matrix) TupleAt(rank int64) []int {
	tuple := make([]int, len(m.Rows))
	r := rank
	for i := len(m.Rows) - 1; i >= 0; i-- {
		n := int64(len(m.Rows[i]))
		tuple[i] = int(r % n)
		r /= n
	}
	return tuple
}

// rankOf is the inverse of datasetAt over value-index tuples.
func (m Matrix) rankOf(tuple []int) int64 {
	r := int64(0)
	for i, v := range tuple {
		r = r*int64(len(m.Rows[i])) + int64(v)
	}
	return r
}

// DatasetAt decodes the dataset at the given rank of the matrix's
// deterministic enumeration — the exported address-decoding entry point
// plan strategies and the corpus mutators build on.
func (m Matrix) DatasetAt(rank int64) Dataset { return m.datasetAt(rank) }

// RankOf is the inverse of DatasetAt over value-index tuples (one value
// index per parameter, in parameter order).
func (m Matrix) RankOf(tuple []int) int64 { return m.rankOf(tuple) }

// Datasets enumerates every combination of the matrix in deterministic
// order: the last parameter varies fastest, exactly like the nested loops
// of the paper's generator.
func (m Matrix) Datasets() []Dataset {
	total := m.Combinations()
	out := make([]Dataset, 0, total)
	for n := 0; n < total; n++ {
		out = append(out, m.datasetAt(int64(n)))
	}
	return out
}

// Generate builds the full test suite for every tested function of the
// header, in document order — the eager wrapper over the exhaustive plan.
func Generate(h *apispec.Header, d *dict.Dictionary) ([]Dataset, error) {
	p, err := NewPlan(StrategyExhaustive, h, d, 0)
	if err != nil {
		return nil, err
	}
	return Materialize(p), nil
}

// CountByFunction returns Eq. 1 per tested function without materialising
// the datasets.
func CountByFunction(h *apispec.Header, d *dict.Dictionary) (map[string]int, error) {
	out := make(map[string]int)
	for _, f := range h.Tested() {
		m, err := BuildMatrix(f, d)
		if err != nil {
			return nil, err
		}
		out[f.Name] = m.Combinations()
	}
	return out, nil
}

// RenderMutantC renders the dataset as the C mutant source of paper
// Fig. 5: a test partition main that invokes the fault placeholder once
// per major frame and reports the return code. The rendering is a faithful
// artefact of the original toolchain; the Go campaign executes the same
// dataset directly.
func RenderMutantC(ds Dataset) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* mutant %04d: %s */\n", ds.Index, ds.String())
	b.WriteString("#include <xm.h>\n#include <stdio.h>\n\n")
	b.WriteString("void PartitionMain(void)\n{\n")
	b.WriteString("    xm_s32_t ret;\n\n")
	b.WriteString("    for (;;) {\n")
	args := make([]string, 0, len(ds.Values))
	for i, v := range ds.Values {
		p := ds.Func.Params[i]
		arg := v.Raw
		switch v.Raw {
		case dict.SymNull:
			arg = "(void *)0"
		case dict.SymValid:
			arg = "(void *)test_buffer"
		case dict.SymValidMid:
			arg = "(void *)(test_buffer + sizeof(test_buffer) / 2)"
		case dict.SymValidLast:
			arg = "(void *)(test_buffer + sizeof(test_buffer) - 4)"
		case dict.SymValidEnd:
			arg = "(void *)(test_buffer + sizeof(test_buffer))"
		case dict.SymUnaligned:
			arg = "(void *)(test_buffer + 1)"
		case dict.SymOtherPart:
			arg = "(void *)OTHER_PARTITION_BASE"
		case dict.SymKernel:
			arg = "(void *)XM_IMAGE_BASE"
		case dict.SymROM:
			arg = "(void *)PROM_BASE"
		case dict.SymIO:
			arg = "(void *)APB_IO_BASE"
		default:
			if p.Pointer() {
				arg = "(void *)" + v.Raw
			} else if strings.HasPrefix(v.Raw, "-") {
				arg = "(" + p.Type + ")(" + v.Raw + "LL)"
			}
		}
		args = append(args, arg)
	}
	fmt.Fprintf(&b, "        ret = %s(%s);\n", ds.Func.Name, strings.Join(args, ", "))
	b.WriteString("        printf(\"[test] ret=%d\\n\", ret);\n")
	b.WriteString("        XM_idle_self(); /* one invocation per major frame */\n")
	b.WriteString("    }\n}\n")
	return b.String()
}
