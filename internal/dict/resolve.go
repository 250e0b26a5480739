package dict

import (
	"fmt"

	"xmrobust/internal/sparc"
)

// Layout describes the memory landscape symbolic values resolve against:
// the test partition's data area plus the landmark addresses of the
// machine (another partition's area, the hypervisor image, PROM, I/O).
type Layout struct {
	DataArea  sparc.Region
	OtherArea sparc.Region
	Kernel    sparc.Addr
	ROM       sparc.Addr
	IO        sparc.Addr
}

// Resolved is a dictionary value fixed to its 64-bit ABI image, carrying
// the dictionary metadata the log-analysis phase needs.
type Resolved struct {
	Value
	Bits uint64
}

// Resolve fixes a value against the layout. Literals pass through;
// symbolic tokens become the corresponding address. No token parses as
// a literal, so trying the tokens first gives a literal's bits exactly
// as parsing it first would, and a token costs no parse error.
func (l Layout) Resolve(v Value) (Resolved, error) {
	if addr, ok := l.symbol(v.Raw); ok {
		return Resolved{Value: v, Bits: uint64(uint32(addr))}, nil
	}
	bits, err := parseLiteral(v.Raw)
	if err != nil {
		return Resolved{}, fmt.Errorf("dict: unknown symbolic value %q", v.Raw)
	}
	return Resolved{Value: v, Bits: bits}, nil
}

// symbol resolves a symbolic token; ok is false for anything else.
func (l Layout) symbol(raw string) (addr sparc.Addr, ok bool) {
	switch raw {
	case SymNull:
		return 0, true
	case SymValid:
		return l.DataArea.Base, true
	case SymValidMid:
		return l.DataArea.Base + sparc.Addr(l.DataArea.Size/2), true
	case SymValidLast:
		return l.DataArea.Base + sparc.Addr(l.DataArea.Size-4), true
	case SymValidEnd:
		return l.DataArea.Base + sparc.Addr(l.DataArea.Size), true
	case SymUnaligned:
		return l.DataArea.Base + 1, true
	case SymOtherPart:
		return l.OtherArea.Base, true
	case SymKernel:
		return l.Kernel, true
	case SymROM:
		return l.ROM, true
	case SymIO:
		return l.IO, true
	}
	return 0, false
}

// ResolveAll fixes a whole value list.
func (l Layout) ResolveAll(vs []Value) ([]Resolved, error) {
	out := make([]Resolved, 0, len(vs))
	for _, v := range vs {
		r, err := l.Resolve(v)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
