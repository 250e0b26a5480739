package sparc

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// flatMemory is the reference FuzzMachineMemory holds the paged banks to:
// three zeroed flat banks under the machine's bus, trap and counter
// rules, with nothing paged.
type flatMemory struct {
	rom, ram, io             []byte
	romBase, ramBase, ioBase Addr
	reads, writes, traps     uint64
	dirty, stored            map[Addr]bool // page bases: since the last reset, ever
	spans                    []flatSpan    // everything stored since the last reset
}

// flatSpan is a stored range: where it lives in the reference and which
// address it starts at.
type flatSpan struct {
	mem  []byte
	addr Addr
}

// flatRef is allocated once per process: the banks are 18 MiB, and reset
// zeroes exactly the spans stored since the last one.
var flatRef *flatMemory

func newFlatMemory(cfg Config) *flatMemory {
	if flatRef == nil {
		flatRef = &flatMemory{
			rom: make([]byte, cfg.ROMSize), ram: make([]byte, cfg.RAMSize), io: make([]byte, cfg.IOSize),
			romBase: cfg.ROMBase, ramBase: cfg.RAMBase, ioBase: cfg.IOBase,
		}
	}
	f := flatRef
	f.reset()
	f.stored = map[Addr]bool{}
	return f
}

func (f *flatMemory) reset() {
	for _, s := range f.spans {
		clear(s.mem)
	}
	f.spans = f.spans[:0]
	f.dirty = map[Addr]bool{}
	f.reads, f.writes, f.traps = 0, 0, 0
}

// locate finds the bank holding all of [addr, addr+size): RAM, ROM, I/O.
func (f *flatMemory) locate(addr Addr, size uint32) (mem []byte, base Addr) {
	for _, b := range [...]struct {
		mem  []byte
		base Addr
	}{{f.ram, f.ramBase}, {f.rom, f.romBase}, {f.io, f.ioBase}} {
		off := uint64(addr) - uint64(b.base)
		if uint64(addr) >= uint64(b.base) && off+uint64(size) <= uint64(len(b.mem)) {
			return b.mem[off : off+uint64(size)], b.base
		}
	}
	return nil, 0
}

// mark records a store of size bytes at addr into the bank at base.
func (f *flatMemory) mark(mem []byte, addr, base Addr) {
	f.spans = append(f.spans, flatSpan{mem, addr})
	for off := uint64(addr - base); off < uint64(addr-base)+uint64(len(mem)); off = off&^pageMask + DirtyPageSize {
		pg := base + Addr(off&^pageMask)
		f.dirty[pg], f.stored[pg] = true, true
	}
}

func (f *flatMemory) read(addr Addr, size uint32) ([]byte, *Trap) {
	f.reads++
	mem, _ := f.locate(addr, size)
	if mem == nil {
		f.traps++
		return nil, DataAccessTrap(addr, PermRead, "bus error: unbacked address")
	}
	return append([]byte{}, mem...), nil
}

func (f *flatMemory) write(addr Addr, data []byte) *Trap {
	f.writes++
	size := uint32(len(data))
	if uint64(addr) >= uint64(f.romBase) && uint64(addr)+uint64(size) <= uint64(f.romBase)+uint64(len(f.rom)) {
		f.traps++
		return DataAccessTrap(addr, PermWrite, "write to PROM")
	}
	mem, base := f.locate(addr, size)
	if mem == nil {
		f.traps++
		return DataAccessTrap(addr, PermWrite, "bus error: unbacked address")
	}
	copy(mem, data)
	if size > 0 {
		f.mark(mem, addr, base)
	}
	return nil
}

func (f *flatMemory) aligned(addr Addr, align uint32, access Perm) *Trap {
	if uint32(addr)%align != 0 {
		f.traps++
		return AlignmentTrap(addr, access)
	}
	return nil
}

func (f *flatMemory) flip(addr Addr, bit uint8) bool {
	mem, base := f.locate(addr, 1)
	if mem == nil || base == f.romBase {
		return false
	}
	mem[0] ^= 1 << (bit % 8)
	f.mark(mem, addr, base)
	return true
}

func (f *flatMemory) dirtyPages() []Addr {
	var out []Addr
	for pg := range f.dirty {
		out = append(out, pg)
	}
	slices.Sort(out)
	return out
}

// Memory operations FuzzMachineMemory decodes, one byte each.
const (
	opWrite = iota
	opWrite32
	opWrite64
	opRead
	opReadInto
	opRead32
	opRead64
	opFlipBit
	opReset
	numOps
)

// fuzzAnchors bias the decoded addresses towards the edges that matter:
// bank bases and ends, the first pages of RAM and I/O, and space no bank
// backs. Each is then moved by up to three pages and a signed byte.
var fuzzAnchors = [...]Addr{
	DefaultROMBase,
	DefaultROMBase + Addr(DefaultROMSize),
	DefaultRAMBase,
	DefaultRAMBase + DirtyPageSize,
	DefaultRAMBase + Addr(DefaultRAMSize)/2,
	DefaultRAMBase + Addr(DefaultRAMSize) - DirtyPageSize,
	DefaultRAMBase + Addr(DefaultRAMSize),
	DefaultIOBase,
	DefaultIOBase + Addr(DefaultIOSize) - DirtyPageSize,
	DefaultIOBase + Addr(DefaultIOSize),
	0xF0000000,
}

// opStream decodes operands from the fuzz input; past its end every
// operand is zero.
type opStream []byte

func (s *opStream) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// addr is an anchor, a page step in [-3, 3] and a signed byte offset.
func (s *opStream) addr() Addr {
	a := fuzzAnchors[int(s.next())%len(fuzzAnchors)]
	pages, off := int32(int8(s.next())%4), int32(int8(s.next()))
	return a + Addr(pages*DirtyPageSize+off)
}

// word is an addr rounded down to align when the next byte is even.
func (s *opStream) word(align uint32) Addr {
	a := s.addr()
	if s.next()%2 == 0 {
		a &^= Addr(align - 1)
	}
	return a
}

// length is 0-127 from one byte with the top bit clear, else 0-9000.
func (s *opStream) length() uint32 {
	b := s.next()
	if b&0x80 == 0 {
		return uint32(b)
	}
	return (uint32(b&0x7f)<<8 | uint32(s.next())) % 9001
}

func (s *opStream) u32() uint32 {
	return uint32(s.next())<<24 | uint32(s.next())<<16 | uint32(s.next())<<8 | uint32(s.next())
}

// fuzzData is what decoded stores write, from an offset the input picks;
// fuzzStale is what a reused ReadInto buffer holds before each read.
var fuzzData, fuzzStale = func() ([]byte, []byte) {
	data, stale := make([]byte, 256+9000), make([]byte, 9000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	for i := range stale {
		stale[i] = 0xa5
	}
	return data, stale
}()

// memSeed encodes operations for the seed corpus: each argument is one
// byte of the stream, an int standing for its low byte.
func memSeed(ops ...int) []byte {
	out := make([]byte, len(ops))
	for i, v := range ops {
		out[i] = byte(v)
	}
	return out
}

// FuzzMachineMemory runs a decoded sequence of memory operations on a
// Machine and on the flat reference, and requires them to agree after
// every operation: the bytes each read returns, whether each access traps
// and with which trap, the flips applied, Stats, DirtyPages, and which
// pages have storage (exactly those ever stored to). After every Reset the
// machine must pass VerifyClean, and at the end every byte stored since
// the last Reset must read back as the reference holds it.
func FuzzMachineMemory(f *testing.F) {
	const ramPage1, ramEnd, romEnd, rom, ram, ioEnd = 3, 6, 1, 0, 2, 9
	// A 10-byte store across RAM's first page boundary, reads straddling
	// it and the never-stored page after it, a flip, a 9000-byte store
	// over three pages, then the same ranges again after a Reset.
	f.Add(memSeed(
		opWrite, ramPage1, 0, -3, 10, 0x55,
		opRead, ramPage1, 0, -8, 20,
		opReadInto, ramPage1, 1, -2, 8,
		opFlipBit, ramPage1, 0, -1, 3,
		opWrite, ramPage1, 0, -100, 0x80|9000>>8, 9000&0xff, 0x11,
		opRead, ramPage1, 0, -100, 0x80|9000>>8, 9000&0xff,
		opReset,
		opRead32, ramPage1, 0, 0, 0,
		opRead, ramPage1, 0, -100, 0x80|9000>>8, 9000&0xff,
	))
	// The end of RAM: stores up to it and across it, aligned and
	// misaligned words, a read across ROM's end, stores and a flip aimed
	// at ROM, then a Reset.
	f.Add(memSeed(
		opWrite, ramEnd, 0, -6, 6, 0x77,
		opWrite, ramEnd, 0, -2, 4, 0x01,
		opRead64, ramEnd, 0, -8, 0,
		opRead, ramEnd, 0, -4, 8,
		opWrite32, ramEnd, 0, 0, 0, 1, 2, 3, 4,
		opWrite64, ioEnd, 0, -8, 0, 1, 2, 3, 4, 5, 6, 7, 8,
		opReadInto, romEnd, 0, -2, 4,
		opWrite32, rom, 0, 0x10, 0, 9, 9, 9, 9,
		opFlipBit, rom, 0, 0x10, 1,
		opRead32, ram, 0, 1, 1,
		opWrite64, ram, 0, 4, 1, 1, 2, 3, 4, 5, 6, 7, 8,
		opReset,
		opRead64, ramEnd, 0, -8, 0,
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewDefaultMachine()
		ref := newFlatMemory(m.Config())
		in := opStream(data)
		buf := make([]byte, len(fuzzStale))
		for step := 0; len(in) > 0 && step < 64; step++ {
			op := in.next() % numOps
			var got, want []byte
			var gotTr, wantTr *Trap
			switch op {
			case opWrite:
				a, n, fill := in.addr(), in.length(), in.next()
				d := fuzzData[fill:][:n]
				gotTr, wantTr = m.Write(a, d), ref.write(a, d)
			case opWrite32:
				a, v := in.word(4), in.u32()
				gotTr = m.Write32(a, v)
				if wantTr = ref.aligned(a, 4, PermWrite); wantTr == nil {
					wantTr = ref.write(a, []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
				}
			case opWrite64:
				a, hi, lo := in.word(8), in.u32(), in.u32()
				gotTr = m.Write64(a, uint64(hi)<<32|uint64(lo))
				if wantTr = ref.aligned(a, 8, PermWrite); wantTr == nil {
					wantTr = ref.write(a, []byte{byte(hi >> 24), byte(hi >> 16), byte(hi >> 8), byte(hi),
						byte(lo >> 24), byte(lo >> 16), byte(lo >> 8), byte(lo)})
				}
			case opRead:
				a, n := in.addr(), in.length()
				got, gotTr = m.Read(a, n)
				want, wantTr = ref.read(a, n)
			case opReadInto:
				a, n := in.addr(), in.length()
				// A reused buffer: stale bytes must not survive a read
				// of pages without storage.
				copy(buf, fuzzStale)
				if gotTr = m.ReadInto(a, buf[:n]); gotTr == nil {
					got = buf[:n]
				}
				want, wantTr = ref.read(a, n)
			case opRead32, opRead64:
				align := uint32(4)
				if op == opRead64 {
					align = 8
				}
				a := in.word(align)
				var v uint64
				if align == 4 {
					var v32 uint32
					v32, gotTr = m.Read32(a)
					v = uint64(v32)
				} else {
					v, gotTr = m.Read64(a)
				}
				if gotTr == nil {
					for i := int(align) - 1; i >= 0; i-- {
						got = append(got, byte(v>>(8*i)))
					}
				}
				if wantTr = ref.aligned(a, align, PermRead); wantTr == nil {
					want, wantTr = ref.read(a, align)
				}
			case opFlipBit:
				a, bit := in.addr(), in.next()
				if g, w := m.FlipBit(a, bit), ref.flip(a, bit); g != w {
					t.Fatalf("step %d: FlipBit(%#x) = %v, reference %v", step, uint32(a), g, w)
				}
			case opReset:
				m.Reset()
				ref.reset()
				if err := m.VerifyClean(); err != nil {
					t.Fatalf("step %d: after Reset: %v", step, err)
				}
			}
			if !reflect.DeepEqual(gotTr, wantTr) {
				t.Fatalf("step %d (op %d): trap %v, reference %v", step, op, gotTr, wantTr)
			}
			if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("step %d (op %d): read %x, reference %x", step, op, got, want)
			}
			if r, w, tr := m.Stats(); r != ref.reads || w != ref.writes || tr != ref.traps {
				t.Fatalf("step %d (op %d): stats (%d,%d,%d), reference (%d,%d,%d)",
					step, op, r, w, tr, ref.reads, ref.writes, ref.traps)
			}
			if got, want := m.DirtyPages(), ref.dirtyPages(); !slices.Equal(got, want) {
				t.Fatalf("step %d (op %d): dirty pages %x, reference %x", step, op, got, want)
			}
			if got := len(m.rom.alloc) + len(m.ram.alloc) + len(m.io.alloc); got != len(ref.stored) {
				t.Fatalf("step %d (op %d): %d pages have storage, %d were stored to", step, op, got, len(ref.stored))
			}
		}
		for _, s := range ref.spans {
			b, off := m.backing(s.addr, uint32(len(s.mem)))
			got := make([]byte, len(s.mem))
			b.read(off, got)
			if !bytes.Equal(got, s.mem) {
				t.Fatalf("%d bytes at %#x hold %x, reference %x", len(s.mem), uint32(s.addr), got, s.mem)
			}
		}
	})
}
