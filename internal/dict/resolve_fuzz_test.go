package dict

import (
	"fmt"
	"testing"

	"xmrobust/internal/sparc"
)

// FuzzResolve holds Layout.Resolve, which tries the symbolic tokens
// before parsing a literal, to refResolve, which parses first: for any
// raw value both return the same bits and the same error text, and
// IsSymbol agrees with the parse. Raw values arrive from user XML
// (xmrobust.ParseDict), so any string is an input.
func FuzzResolve(f *testing.F) {
	l := Layout{
		DataArea:  sparc.Region{Name: "data", Base: 0x40500000, Size: 0x10000, Perm: sparc.PermRW},
		OtherArea: sparc.Region{Name: "data", Base: 0x40100000, Size: 0x10000, Perm: sparc.PermRW},
		Kernel:    0x40000000,
		ROM:       0x00000100,
		IO:        0x80000000,
	}
	for _, s := range []string{
		SymNull, SymValid, SymValidMid, SymValidLast, SymValidEnd,
		SymUnaligned, SymOtherPart, SymKernel, SymROM, SymIO,
		" VALID", "VALID ", "valid", "0", " 16", "-1", "+1", "-0x10", "0x",
		"0xFFFFFFFF", "0x1_0", "18446744073709551616", "-9223372036854775809", "", " ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		v := Value{Raw: raw}
		got, gerr := l.Resolve(v)
		want, werr := refResolve(l, v)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || got != want {
			t.Fatalf("Resolve(%q) = %+v, %v; want %+v, %v", raw, got, gerr, want, werr)
		}
		if _, perr := parseLiteral(raw); v.IsSymbol() != (perr != nil) {
			t.Fatalf("IsSymbol(%q) = %v, but parseLiteral's error is %v", raw, v.IsSymbol(), perr)
		}
	})
}

// refResolve resolves a value by parsing it as a literal first and
// looking it up as a symbolic token only when that fails.
func refResolve(l Layout, v Value) (Resolved, error) {
	if bits, err := parseLiteral(v.Raw); err == nil {
		return Resolved{Value: v, Bits: bits}, nil
	}
	var addr sparc.Addr
	switch v.Raw {
	case "NULL":
		addr = 0
	case "VALID":
		addr = l.DataArea.Base
	case "VALID_MID":
		addr = l.DataArea.Base + sparc.Addr(l.DataArea.Size/2)
	case "VALID_LAST":
		addr = l.DataArea.Base + sparc.Addr(l.DataArea.Size-4)
	case "VALID_END":
		addr = l.DataArea.Base + sparc.Addr(l.DataArea.Size)
	case "UNALIGNED":
		addr = l.DataArea.Base + 1
	case "OTHER_PART":
		addr = l.OtherArea.Base
	case "KERNEL":
		addr = l.Kernel
	case "ROM":
		addr = l.ROM
	case "IO":
		addr = l.IO
	default:
		return Resolved{}, fmt.Errorf("dict: unknown symbolic value %q", v.Raw)
	}
	return Resolved{Value: v, Bits: uint64(uint32(addr))}, nil
}
