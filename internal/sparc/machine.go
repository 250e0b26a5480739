package sparc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Time is virtual time in microseconds since machine power-on. The whole
// testbed is driven by this clock; nothing consults the host clock.
type Time int64

// Default physical memory layout, mirroring a typical LEON3 board: PROM at
// 0x00000000, SDRAM at 0x40000000, APB I/O at 0x80000000.
const (
	DefaultROMBase Addr   = 0x00000000
	DefaultROMSize uint32 = 1 << 20 // 1 MiB
	DefaultRAMBase Addr   = 0x40000000
	DefaultRAMSize uint32 = 16 << 20 // 16 MiB
	DefaultIOBase  Addr   = 0x80000000
	DefaultIOSize  uint32 = 1 << 20
)

// NumTimerUnits is the number of GPTIMER subtimers exposed by the machine.
// XtratuM uses one for the hardware clock and one for the execution clock.
const NumTimerUnits = 2

// Config selects the physical memory layout of a Machine.
type Config struct {
	ROMBase Addr
	ROMSize uint32
	RAMBase Addr
	RAMSize uint32
	IOBase  Addr
	IOSize  uint32
}

// DefaultConfig returns the canonical LEON3 layout used by the testbed.
func DefaultConfig() Config {
	return Config{
		ROMBase: DefaultROMBase, ROMSize: DefaultROMSize,
		RAMBase: DefaultRAMBase, RAMSize: DefaultRAMSize,
		IOBase: DefaultIOBase, IOSize: DefaultIOSize,
	}
}

// Machine is the simulated LEON3 target: byte-addressable ROM/RAM/IO, a
// virtual clock, two timer units, an interrupt controller and a UART. It
// plays the role of TSIM in the paper's test setup, including TSIM's
// failure mode: Crash marks the simulator itself dead, distinct from any
// guest or kernel failure.
//
// Memory is paged: each bank is a table of 4 KiB pages, and a page gets
// storage on its first store. A page nothing has stored to reads as zero
// and costs one nil pointer, so a machine's footprint is its page tables
// plus the pages its runs have actually touched, not the sizes of its
// banks.
type Machine struct {
	cfg Config
	// ROM has a page table but never a page: stores to it trap and flips
	// refuse it, so it reads as zero.
	rom, ram, io bank

	now    Time
	timers [NumTimerUnits]TimerUnit
	irqc   IRQController
	uart   UART

	crashed     bool
	crashReason string

	// stats
	reads, writes, trapsRaised uint64
	resets                     uint64

	// auditNext is where the next AuditPages window starts: an index
	// into the allocated pages of RAM, then I/O.
	auditNext int

	// host is what the embedding harness parks on the machine between
	// runs (see Host). It is not machine state: Reset leaves it alone.
	host any
}

// pageShift sets the page size of the banks: 4 KiB. A page is the unit
// of storage and of dirty tracking alike.
const pageShift = 12

// DirtyPageSize is the page size in bytes: the granularity of storage and
// dirty tracking, and the alignment of DirtyPages addresses.
const DirtyPageSize = 1 << pageShift

// pageMask extracts the offset within a page.
const pageMask = DirtyPageSize - 1

// page is the storage of one bank page.
type page = [DirtyPageSize]byte

// bank is one memory bank as a table of pages. A nil entry is a page
// that was never stored to; it has no storage and reads as zero. dirty
// marks the pages stored to since power-on or the last Reset, which
// Reset zeroes in place. A page, once allocated, stays allocated for the
// machine's lifetime, and alloc lists the allocated pages in allocation
// order for the scans that must see every byte that can be non-zero.
type bank struct {
	pages []*page
	dirty []uint64
	alloc []uint32
}

func newBank(size uint32) bank {
	n := (uint64(size) + pageMask) >> pageShift
	return bank{pages: make([]*page, n), dirty: make([]uint64, (n+63)/64)}
}

// storage returns page i's storage, allocating it on first use. It does
// not mark the page dirty; stores go through store.
func (b *bank) storage(i uint64) *page {
	p := b.pages[i]
	if p == nil {
		p = new(page)
		b.pages[i] = p
		b.alloc = append(b.alloc, uint32(i))
	}
	return p
}

// store returns page i's storage for a store: allocated on first touch
// and marked dirty in the same step, so no store escapes Reset.
func (b *bank) store(i uint64) *page {
	b.dirty[i/64] |= 1 << (i % 64)
	return b.storage(i)
}

// read copies the bytes at in-bank offset off into dst, split at page
// boundaries; a page with no storage reads as zero.
func (b *bank) read(off uint64, dst []byte) {
	for len(dst) > 0 {
		in := off & pageMask
		n := min(uint64(len(dst)), DirtyPageSize-in)
		if p := b.pages[off>>pageShift]; p != nil {
			copy(dst[:n], p[in:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
}

// write stores src at in-bank offset off, split at page boundaries.
func (b *bank) write(off uint64, src []byte) {
	for len(src) > 0 {
		p := b.store(off >> pageShift)
		n := copy(p[off&pageMask:], src)
		src = src[n:]
		off += uint64(n)
	}
}

// clean reports whether no page is dirty.
func (b *bank) clean() bool {
	for _, w := range b.dirty {
		if w != 0 {
			return false
		}
	}
	return true
}

// reset zeroes every dirty page in place and clears the dirty set. The
// pages keep their storage for the machine's next run.
func (b *bank) reset() {
	for wi, w := range b.dirty {
		for ; w != 0; w &= w - 1 {
			clear(b.pages[wi*64+bits.TrailingZeros64(w)][:])
		}
		b.dirty[wi] = 0
	}
}

// residue returns the offset of p's first non-zero byte, or -1 when the
// page is all zero. The scan is word-wise; a hit is pinned down to the
// byte.
func residue(p *page) int {
	for off := 0; off < len(p); off += 8 {
		if binary.NativeEndian.Uint64(p[off:]) != 0 {
			for p[off] == 0 {
				off++
			}
			return off
		}
	}
	return -1
}

// NewMachine powers on a machine with the given layout. Memory reads as
// zero, the clock is at 0, timers are disarmed. Only the page tables are
// allocated; pages come with the first store to them.
func NewMachine(cfg Config) *Machine {
	m := &Machine{
		cfg: cfg,
		rom: newBank(cfg.ROMSize),
		ram: newBank(cfg.RAMSize),
		io:  newBank(cfg.IOSize),
	}
	for i := range m.timers {
		m.timers[i].unit = i
	}
	return m
}

// NewDefaultMachine is NewMachine(DefaultConfig()).
func NewDefaultMachine() *Machine { return NewMachine(DefaultConfig()) }

// Config returns the memory layout the machine was built with.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the current virtual time.
func (m *Machine) Now() Time { return m.now }

// UART returns the console device.
func (m *Machine) UART() *UART { return &m.uart }

// IRQ returns the interrupt controller.
func (m *Machine) IRQ() *IRQController { return &m.irqc }

// Timer returns timer unit i (0 or 1).
func (m *Machine) Timer(i int) *TimerUnit { return &m.timers[i] }

// Crash marks the simulator itself as dead — the analogue of TSIM
// terminating, as the paper observed for XM_set_timer(1,1,1). After Crash,
// AdvanceTo and memory operations return ErrCrashed and the embedding
// harness must discard the machine.
func (m *Machine) Crash(reason string) {
	if !m.crashed {
		m.crashed = true
		m.crashReason = reason
	}
}

// Crashed reports whether the simulator has crashed, and why.
func (m *Machine) Crashed() (bool, string) { return m.crashed, m.crashReason }

// ErrCrashed is returned by time/memory operations after the simulator has
// crashed.
type ErrCrashed struct{ Reason string }

func (e ErrCrashed) Error() string { return "simulator crashed: " + e.Reason }

// AdvanceTo moves virtual time forward to t, firing due timers in expiry
// order. Timer callbacks run with the clock set to their expiry instant, so
// a callback that re-arms its timer in the past is observed immediately —
// this is the mechanism behind the paper's XM_set_timer stack-overflow
// finding. Advancing backwards is a no-op.
func (m *Machine) AdvanceTo(t Time) error {
	if m.crashed {
		return ErrCrashed{m.crashReason}
	}
	for {
		unit, expiry := m.nextDue(t)
		if unit < 0 {
			break
		}
		if expiry > m.now {
			m.now = expiry
		}
		m.timers[unit].fire(m)
		if m.crashed {
			return ErrCrashed{m.crashReason}
		}
	}
	if t > m.now {
		m.now = t
	}
	return nil
}

// Advance moves the clock forward by dt microseconds.
func (m *Machine) Advance(dt Time) error { return m.AdvanceTo(m.now + dt) }

// nextDue finds the armed timer with the earliest expiry not after limit.
// Ties resolve to the lower unit number for determinism.
func (m *Machine) nextDue(limit Time) (int, Time) {
	best, bestAt := -1, Time(0)
	for i := range m.timers {
		tu := &m.timers[i]
		if !tu.armed || tu.expiry > limit {
			continue
		}
		if best < 0 || tu.expiry < bestAt {
			best, bestAt = i, tu.expiry
		}
	}
	return best, bestAt
}

// backing resolves a physical address range to the bank holding all of
// it and the offset of addr in that bank, or nil if no bank does (a bus
// error on real hardware). Straight-line bank checks: this sits under
// every memory access of the simulator.
func (m *Machine) backing(addr Addr, size uint32) (*bank, uint64) {
	if off, ok := bankOffset(addr, size, m.cfg.RAMBase, m.cfg.RAMSize); ok {
		return &m.ram, off
	}
	if off, ok := bankOffset(addr, size, m.cfg.ROMBase, m.cfg.ROMSize); ok {
		return &m.rom, off
	}
	if off, ok := bankOffset(addr, size, m.cfg.IOBase, m.cfg.IOSize); ok {
		return &m.io, off
	}
	return nil, 0
}

// bankOffset resolves addr against one bank, returning the in-bank offset.
func bankOffset(addr Addr, size uint32, base Addr, bankSize uint32) (uint64, bool) {
	off := uint64(addr) - uint64(base)
	return off, uint64(addr) >= uint64(base) && off+uint64(size) <= uint64(bankSize)
}

// Read reads size bytes at addr into a fresh slice, returning a
// data_access_exception trap for unbacked addresses. This is the raw bus
// access; permission checks belong to Space.Check and are the caller's
// (the kernel's) responsibility. Hot paths that can provide their own
// buffer use ReadInto and skip the allocation.
func (m *Machine) Read(addr Addr, size uint32) ([]byte, *Trap) {
	m.reads++
	b, off := m.backing(addr, size)
	if b == nil {
		m.trapsRaised++
		return nil, DataAccessTrap(addr, PermRead, "bus error: unbacked address")
	}
	out := make([]byte, size)
	b.read(off, out)
	return out, nil
}

// ReadInto reads len(buf) bytes at addr into buf — the allocation-free
// form of Read, for the kernel's bulk-copy and string-walk paths. The
// bus and trap accounting is identical to Read's.
func (m *Machine) ReadInto(addr Addr, buf []byte) *Trap {
	m.reads++
	b, off := m.backing(addr, uint32(len(buf)))
	if b == nil {
		m.trapsRaised++
		return DataAccessTrap(addr, PermRead, "bus error: unbacked address")
	}
	b.read(off, buf)
	return nil
}

// Write stores data at addr, trapping on unbacked addresses. Writes to ROM
// trap with a data_access_exception, as the PROM controller would. Each
// page the store touches gets its storage on first touch and is marked
// dirty, so Reset finds it.
func (m *Machine) Write(addr Addr, data []byte) *Trap {
	m.writes++
	switch b, off := m.backing(addr, uint32(len(data))); b {
	case nil:
		m.trapsRaised++
		return DataAccessTrap(addr, PermWrite, "bus error: unbacked address")
	case &m.rom:
		m.trapsRaised++
		return DataAccessTrap(addr, PermWrite, "write to PROM")
	default:
		b.write(off, data)
		return nil
	}
}

// Read32 loads a big-endian word (SPARC is big-endian) without
// allocating.
func (m *Machine) Read32(addr Addr) (uint32, *Trap) {
	if uint32(addr)%4 != 0 {
		m.trapsRaised++
		return 0, AlignmentTrap(addr, PermRead)
	}
	var w [4]byte
	if tr := m.ReadInto(addr, w[:]); tr != nil {
		return 0, tr
	}
	return binary.BigEndian.Uint32(w[:]), nil
}

// Write32 stores a big-endian word.
func (m *Machine) Write32(addr Addr, v uint32) *Trap {
	if uint32(addr)%4 != 0 {
		m.trapsRaised++
		return AlignmentTrap(addr, PermWrite)
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return m.Write(addr, b[:])
}

// Read64 loads a big-endian doubleword without allocating, like Read32.
func (m *Machine) Read64(addr Addr) (uint64, *Trap) {
	if uint32(addr)%8 != 0 {
		m.trapsRaised++
		return 0, AlignmentTrap(addr, PermRead)
	}
	var w [8]byte
	if tr := m.ReadInto(addr, w[:]); tr != nil {
		return 0, tr
	}
	return binary.BigEndian.Uint64(w[:]), nil
}

// Write64 stores a big-endian doubleword.
func (m *Machine) Write64(addr Addr, v uint64) *Trap {
	if uint32(addr)%8 != 0 {
		m.trapsRaised++
		return AlignmentTrap(addr, PermWrite)
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return m.Write(addr, b[:])
}

// DirtyPages returns the base addresses of the writable pages stored to
// since power-on (or the last Reset), ascending, RAM bank before I/O.
// This is the SEU injector's target list: a bit flipped in a page no run
// has touched cannot influence a deterministic execution, so live pages
// are where upsets matter. The walk reuses the dirty bitmaps Reset
// scrubs from, so the list is exact, not heuristic.
func (m *Machine) DirtyPages() []Addr {
	var out []Addr
	for _, bk := range [...]struct {
		b    *bank
		base Addr
	}{{&m.ram, m.cfg.RAMBase}, {&m.io, m.cfg.IOBase}} {
		for wi, w := range bk.b.dirty {
			for ; w != 0; w &= w - 1 {
				i := wi*64 + bits.TrailingZeros64(w)
				out = append(out, bk.base+Addr(i)<<pageShift)
			}
		}
	}
	return out
}

// FlipBit inverts one bit of backed writable memory — the single-event-
// upset primitive. The touched page is marked dirty, so Reset scrubs an
// injected machine exactly like any other and it recycles through the
// pool without residue; a flip into a page no run has stored to gives
// that page its storage. Unlike Write, a flip models radiation, not a
// bus transaction: it bypasses the access counters and cannot trap;
// flips aimed at ROM or unbacked addresses report false and change
// nothing (PROM cells are not writable by an upset in this model). The
// bit index is taken modulo 8. Crashed machines refuse flips.
func (m *Machine) FlipBit(addr Addr, bit uint8) bool {
	if m.crashed {
		return false
	}
	b, off := m.backing(addr, 1)
	if b == nil || b == &m.rom {
		return false
	}
	p := b.store(off >> pageShift)
	p[off&pageMask] ^= 1 << (bit % 8)
	return true
}

// FlipClockBit inverts one low bit of the virtual clock — an upset in
// the timebase. The bit index is taken modulo 28 (≈134 s of skew) so a
// flipped timestamp stays within the timer arithmetic's horizon: the
// point is a surviving system observing skewed time, not an overflowed
// simulation. It returns the new clock value.
func (m *Machine) FlipClockBit(bit uint8) Time {
	m.now ^= 1 << (bit % 28)
	return m.now
}

// Stats reports bus and trap counters, for the campaign's execution logs.
func (m *Machine) Stats() (reads, writes, traps uint64) {
	return m.reads, m.writes, m.trapsRaised
}

// Resets returns how many times the machine has been Reset since power-on.
func (m *Machine) Resets() uint64 { return m.resets }

// Host returns what the embedding harness parked on the machine with
// SetHost, nil when nothing is. The sim target parks the testbed kernel
// of a machine's last run here, so the machine's next run recycles it.
// Reset leaves the parked value in place, and a machine the pool
// discards takes it along: nothing outside the machine keeps it.
func (m *Machine) Host() any { return m.host }

// SetHost parks h on the machine, replacing whatever was parked; nil
// clears it.
func (m *Machine) SetHost(h any) { m.host = h }

// Reset returns the machine to its power-on state in place: memory zeroed,
// clock at 0, timers disarmed, devices cleared, crash flag dropped. Only
// the pages stored to since the last reset are zeroed, and they keep
// their storage, so the cost is proportional to what the previous run
// touched, and a recycled machine's footprint is the pages its runs have
// stored to. Crashed machines reset like any other: rewinding past the
// crash is how the inject composite recycles its slot between legs. The
// console keeps its buffer's storage, so a recycled machine does not
// regrow it. The reset counter survives and increments. It is the scrub
// reference tests check the dirty tracker against.
func (m *Machine) Reset() {
	m.ram.reset()
	m.io.reset()
	m.now = 0
	for i := range m.timers {
		m.timers[i] = TimerUnit{unit: i}
	}
	m.irqc = IRQController{}
	m.uart.buf.Reset()
	m.uart.written, m.uart.dropped = 0, 0
	m.crashed, m.crashReason = false, ""
	m.reads, m.writes, m.trapsRaised = 0, 0, 0
	m.resets++
}

// VerifyReset checks the cheap power-on invariants a freshly Reset machine
// must satisfy: clock at zero, no crash, timers disarmed, console empty,
// interrupt controller clear, dirty sets drained. It is fast enough to run
// on every pool recycle; VerifyClean adds the exhaustive memory scan.
func (m *Machine) VerifyReset() error {
	switch {
	case m.crashed:
		return fmt.Errorf("sparc: reset machine still crashed: %s", m.crashReason)
	case m.now != 0:
		return fmt.Errorf("sparc: reset machine clock at %dus", m.now)
	case m.uart.Written() != 0:
		return fmt.Errorf("sparc: reset machine console holds %d bytes", m.uart.Written())
	case m.irqc.Pending() != 0:
		return fmt.Errorf("sparc: reset machine has pending IRQs %#x", m.irqc.Pending())
	case !m.ram.clean() || !m.io.clean():
		return fmt.Errorf("sparc: reset machine has undrained dirty pages")
	}
	for i := range m.timers {
		if armed, at := m.timers[i].Armed(); armed {
			return fmt.Errorf("sparc: reset machine timer %d armed for t=%d", i, at)
		}
	}
	return nil
}

// AuditPages scans the next n allocated pages of the writable banks for
// residue. Its window rotates over the allocated pages, RAM then I/O in
// allocation order, continuing where the previous audit stopped, so
// ceil(allocated/n) successive audits scan every page that has storage;
// a page without storage reads as zero by construction. It is the cheap
// middle ground between VerifyReset (invariants only — it cannot see a
// page the dirty tracker missed) and VerifyClean (full scan): a
// dirty-tracking bug surfaces as an audit failure within a bounded
// number of audits instead of leaking silently.
func (m *Machine) AuditPages(n int) error {
	ramPages := len(m.ram.alloc)
	total := ramPages + len(m.io.alloc)
	for range min(n, total) {
		if m.auditNext >= total {
			m.auditNext = 0
		}
		b, name, i := &m.ram, "ram", m.auditNext
		if i >= ramPages {
			b, name, i = &m.io, "io", i-ramPages
		}
		m.auditNext++
		pg := b.alloc[i]
		if off := residue(b.pages[pg]); off >= 0 {
			return fmt.Errorf("sparc: %s residue at page %d offset %#x (untracked write?)",
				name, pg, uint64(pg)<<pageShift+uint64(off))
		}
	}
	return nil
}

// VerifyClean is the exhaustive form of VerifyReset: it additionally scans
// every byte of every page of ROM, RAM and I/O space that has storage
// for residue of a previous run; a page without storage reads as zero by
// construction. It is the ground truth the reset-isolation tests (and the
// pool's strict mode) check the dirty-page bookkeeping against.
func (m *Machine) VerifyClean() error {
	if err := m.VerifyReset(); err != nil {
		return err
	}
	for _, bk := range [...]struct {
		name string
		base Addr
		b    *bank
	}{
		{"rom", m.cfg.ROMBase, &m.rom},
		{"ram", m.cfg.RAMBase, &m.ram},
		{"io", m.cfg.IOBase, &m.io},
	} {
		for _, pg := range bk.b.alloc {
			p := bk.b.pages[pg]
			if off := residue(p); off >= 0 {
				return fmt.Errorf("sparc: %s residue: byte %#x at %#x",
					bk.name, p[off], uint64(bk.base)+uint64(pg)<<pageShift+uint64(off))
			}
		}
	}
	return nil
}

// RAMRegion returns a Region covering all of RAM (convenience for tests).
func (m *Machine) RAMRegion(perm Perm) Region {
	return Region{Name: "ram", Base: m.cfg.RAMBase, Size: m.cfg.RAMSize, Perm: perm}
}

func (m *Machine) String() string {
	return fmt.Sprintf("leon3{t=%dus rom=%dKiB ram=%dMiB crashed=%v}",
		m.now, m.cfg.ROMSize>>10, m.cfg.RAMSize>>20, m.crashed)
}
