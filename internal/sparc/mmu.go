package sparc

import (
	"fmt"
	"sort"
	"strings"
)

// Addr is a 32-bit physical address on the LEON3 bus.
type Addr uint32

// Perm is a bitmask of access rights on a memory region.
type Perm uint8

// Access rights. PermExec is tracked so instruction-fetch style accesses
// (e.g. the multicall batch walker) can be distinguished in logs.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec

	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// String renders the permission mask as "rwx" flags.
func (p Perm) String() string {
	var b strings.Builder
	for _, f := range [...]struct {
		bit Perm
		c   byte
	}{{PermRead, 'r'}, {PermWrite, 'w'}, {PermExec, 'x'}} {
		if p&f.bit != 0 {
			b.WriteByte(f.c)
		} else {
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Region is a contiguous range of physical addresses with uniform access
// rights, as configured by the separation kernel for one address-space view
// (a partition, or the kernel itself).
type Region struct {
	Name string
	Base Addr
	Size uint32
	Perm Perm
}

// End returns the first address past the region. The arithmetic is done in
// 64 bits so a region touching the top of the address space does not wrap.
func (r Region) End() uint64 { return uint64(r.Base) + uint64(r.Size) }

// Contains reports whether [addr, addr+size) lies entirely inside the
// region. size==0 is treated as a 1-byte probe.
func (r Region) Contains(addr Addr, size uint32) bool {
	if size == 0 {
		size = 1
	}
	return uint64(addr) >= uint64(r.Base) && uint64(addr)+uint64(size) <= r.End()
}

// Overlaps reports whether two regions share at least one byte.
func (r Region) Overlaps(o Region) bool {
	return uint64(r.Base) < o.End() && uint64(o.Base) < r.End()
}

func (r Region) String() string {
	return fmt.Sprintf("%s [0x%08X..0x%08X) %s", r.Name, uint32(r.Base), uint32(r.End()), r.Perm)
}

// Space is one MMU view: the set of regions an execution context (partition
// or kernel) may touch, with per-region rights. It is the spatial-separation
// primitive the kernel builds partitions from.
type Space struct {
	name    string
	regions []Region
}

// NewSpace builds an address-space view from the given regions. Regions are
// kept sorted by base address for deterministic lookup and display.
func NewSpace(name string, regions ...Region) *Space {
	s := &Space{name: name, regions: append([]Region(nil), regions...)}
	sort.Slice(s.regions, func(i, j int) bool { return s.regions[i].Base < s.regions[j].Base })
	return s
}

// Name returns the label the space was created with.
func (s *Space) Name() string { return s.name }

// Rebuild resets the view to exactly the given regions, reusing the
// backing array — the in-place twin of NewSpace for recycled kernels,
// undoing any run-time AddRegion grants or FlipRegionBit upsets. The
// insertion sort (spaces hold a handful of regions) keeps the hot
// recycle path free of sort.Slice's closure allocations.
func (s *Space) Rebuild(regions ...Region) {
	s.regions = append(s.regions[:0], regions...)
	for i := 1; i < len(s.regions); i++ {
		for j := i; j > 0 && s.regions[j].Base < s.regions[j-1].Base; j-- {
			s.regions[j], s.regions[j-1] = s.regions[j-1], s.regions[j]
		}
	}
}

// Regions returns a copy of the regions in the space.
func (s *Space) Regions() []Region { return append([]Region(nil), s.regions...) }

// AddRegion extends the view with one more region (used when the kernel
// grants a partition access to a shared or I/O area at run time).
func (s *Space) AddRegion(r Region) {
	s.regions = append(s.regions, r)
	sort.Slice(s.regions, func(i, j int) bool { return s.regions[i].Base < s.regions[j].Base })
}

// FlipRegionBit inverts one bit of region i's base address — the SEU
// model of an upset in the MMU context that maps this space: every
// subsequent access through the displaced region resolves against the
// wrong physical window, which is exactly the spatial-separation hazard
// the health monitor exists to catch. The bit index is taken modulo 32;
// the region list is re-sorted to preserve the lookup invariant. Spaces
// without a region i report false. It returns the new base.
func (s *Space) FlipRegionBit(i int, bit uint8) (Addr, bool) {
	if i < 0 || i >= len(s.regions) {
		return 0, false
	}
	s.regions[i].Base ^= 1 << (bit % 32)
	base := s.regions[i].Base
	sort.Slice(s.regions, func(i, j int) bool { return s.regions[i].Base < s.regions[j].Base })
	return base, true
}

// Results of Space.resolve that name no region.
const (
	accessWraps    = -2 // the access runs past the top of the address space
	accessUnmapped = -1 // no region covers the whole access
)

// resolve returns the index of the region that decides an access of size
// bytes at addr: the first, in base order, that covers it whole. It
// returns accessWraps or accessUnmapped when no region decides it.
func (s *Space) resolve(addr Addr, size uint32) int {
	if size == 0 {
		size = 1
	}
	if uint64(addr)+uint64(size) > 1<<32 {
		return accessWraps
	}
	for i, r := range s.regions {
		if r.Contains(addr, size) {
			return i
		}
	}
	return accessUnmapped
}

// Check validates an access of size bytes at addr with rights p. It returns
// nil when some region fully covers the access with sufficient rights, and
// a data_access_exception trap otherwise. Accesses that straddle two
// regions trap even if both halves would individually be allowed: the model
// mirrors an MMU that resolves one page descriptor per access.
func (s *Space) Check(addr Addr, size uint32, p Perm) *Trap {
	switch i := s.resolve(addr, size); {
	case i == accessWraps:
		return DataAccessTrap(addr, p, fmt.Sprintf("%s: access wraps the address space", s.name))
	case i == accessUnmapped:
		return DataAccessTrap(addr, p, fmt.Sprintf("%s: no mapping", s.name))
	case s.regions[i].Perm&p != p:
		return DataAccessTrap(addr, p,
			fmt.Sprintf("%s: region %s lacks %s", s.name, s.regions[i].Name, p))
	}
	return nil
}

// Allows reports whether Check passes the access, without building the
// trap a refusal carries: the check for callers that only test a
// pointer, on whom a refused access costs no allocation.
func (s *Space) Allows(addr Addr, size uint32, p Perm) bool {
	i := s.resolve(addr, size)
	return i >= 0 && s.regions[i].Perm&p == p
}

// CheckAligned is Check plus natural-alignment validation, which LEON3
// enforces in hardware for halfword and larger accesses.
func (s *Space) CheckAligned(addr Addr, size uint32, p Perm) *Trap {
	switch size {
	case 2, 4, 8:
		if uint32(addr)%size != 0 {
			return AlignmentTrap(addr, p)
		}
	}
	return s.Check(addr, size, p)
}

func (s *Space) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "space %s:", s.name)
	for _, r := range s.regions {
		fmt.Fprintf(&b, "\n  %s", r)
	}
	return b.String()
}
