package sparc_test

import (
	"fmt"
	"testing"

	"xmrobust/internal/eagleeye"
	"xmrobust/internal/sparc"
)

// FuzzSpaceCheck holds the two space checks to one rule: for any
// address, size and rights, Allows agrees with Check, and Check's trap
// text is refCheck's. The spaces are the EagleEye partitions' own plus
// one of overlapping regions with mixed rights, where the first region
// in base order that covers an access decides it.
func FuzzSpaceCheck(f *testing.F) {
	k, err := eagleeye.NewSystem()
	if err != nil {
		f.Fatal(err)
	}
	var spaces []*sparc.Space
	for id := 0; id < eagleeye.NumPartitions; id++ {
		spaces = append(spaces, k.PartitionSpace(id))
	}
	spaces = append(spaces, sparc.NewSpace("OVERLAP",
		sparc.Region{Name: "text", Base: 0x1000, Size: 0x2000, Perm: sparc.PermRX},
		sparc.Region{Name: "heap", Base: 0x2000, Size: 0x2000, Perm: sparc.PermRW},
		sparc.Region{Name: "top", Base: 0xFFFFF000, Size: 0x1000, Perm: sparc.PermRead},
	))
	for id := 0; id < eagleeye.NumPartitions; id++ {
		base, size := eagleeye.DataArea(id)
		for _, a := range []uint32{uint32(base), uint32(base) + size - 4, uint32(base) + size, uint32(base) - 1} {
			f.Add(a, uint32(4), uint8(sparc.PermRead))
			f.Add(a, uint32(0), uint8(sparc.PermRW))
			f.Add(a, size, uint8(sparc.PermWrite|sparc.PermExec))
		}
	}
	f.Add(uint32(0), uint32(4), uint8(sparc.PermRead))
	f.Add(uint32(0x2FFE), uint32(4), uint8(sparc.PermWrite))
	f.Add(uint32(0xFFFFFFFC), uint32(8), uint8(sparc.PermRead))
	f.Add(uint32(0xFFFFFFFC), uint32(4), uint8(0))
	f.Fuzz(func(t *testing.T, addr, size uint32, perm uint8) {
		a, p := sparc.Addr(addr), sparc.Perm(perm)
		for _, s := range spaces {
			tr := s.Check(a, size, p)
			got := ""
			if tr != nil {
				got = tr.String()
			}
			if want := refCheck(s, a, size, p); got != want {
				t.Fatalf("%s: Check(%#x, %d, %s) = %q, want %q", s.Name(), addr, size, p, got, want)
			}
			if allowed := s.Allows(a, size, p); allowed != (tr == nil) {
				t.Fatalf("%s: Allows(%#x, %d, %s) = %v, but Check returned %v", s.Name(), addr, size, p, allowed, tr)
			}
		}
	})
}

// refCheck is Space.Check written out from the MMU rules and the
// data_access_exception text: "" when the access passes, the trap's
// text when it does not.
func refCheck(s *sparc.Space, addr sparc.Addr, size uint32, p sparc.Perm) string {
	if size == 0 {
		size = 1
	}
	text := func(detail string) string {
		t := fmt.Sprintf("data_access_exception at 0x%08X", uint32(addr))
		if p != 0 {
			t += " (" + p.String() + ")"
		}
		return t + ": " + s.Name() + ": " + detail
	}
	end := uint64(addr) + uint64(size)
	if end > 1<<32 {
		return text("access wraps the address space")
	}
	for _, r := range s.Regions() {
		if uint64(addr) < uint64(r.Base) || end > uint64(r.Base)+uint64(r.Size) {
			continue
		}
		if r.Perm&p != p {
			return text("region " + r.Name + " lacks " + p.String())
		}
		return ""
	}
	return text("no mapping")
}
