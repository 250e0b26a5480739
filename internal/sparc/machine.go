package sparc

import (
	"encoding/binary"
	"fmt"
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
type Machine struct {
	cfg Config
	rom []byte
	ram []byte
	io  []byte

	now    Time
	timers [NumTimerUnits]TimerUnit
	irqc   IRQController
	uart   UART

	crashed     bool
	crashReason string

	// dirtyRAM/dirtyIO track which pages of the writable banks have been
	// stored to since power-on (or the last Reset), so Reset scrubs only
	// what a run actually touched instead of the whole bank. ROM needs no
	// tracking: writes to it trap.
	dirtyRAM dirtySet
	dirtyIO  dirtySet

	// stats
	reads, writes, trapsRaised uint64
	resets                     uint64
}

// dirtyPageShift sets the dirty-tracking granularity: 4 KiB pages.
const dirtyPageShift = 12

// DirtyPageSize is the dirty-tracking granularity in bytes — the page
// size DirtyPages addresses are aligned to.
const DirtyPageSize = 1 << dirtyPageShift

// dirtySet is a page-granular dirty bitmap over one memory bank.
type dirtySet []uint64

func newDirtySet(bankSize uint32) dirtySet {
	pages := (uint64(bankSize) + (1 << dirtyPageShift) - 1) >> dirtyPageShift
	return make(dirtySet, (pages+63)/64)
}

// mark records that [off, off+size) was written.
func (d dirtySet) mark(off uint64, size uint32) {
	first := off >> dirtyPageShift
	last := (off + uint64(size) - 1) >> dirtyPageShift
	for p := first; p <= last; p++ {
		d[p/64] |= 1 << (p % 64)
	}
}

// empty reports whether no page is marked.
func (d dirtySet) empty() bool {
	for _, w := range d {
		if w != 0 {
			return false
		}
	}
	return true
}

// scrub zeroes every marked page of mem and clears the set.
func (d dirtySet) scrub(mem []byte) {
	for wi, w := range d {
		if w == 0 {
			continue
		}
		for b := 0; b < 64; b++ {
			if w&(1<<b) == 0 {
				continue
			}
			start := (uint64(wi)*64 + uint64(b)) << dirtyPageShift
			end := start + (1 << dirtyPageShift)
			if end > uint64(len(mem)) {
				end = uint64(len(mem))
			}
			clear(mem[start:end])
		}
		d[wi] = 0
	}
}

// NewMachine powers on a machine with the given layout. Memory is zeroed,
// the clock is at 0, timers are disarmed.
func NewMachine(cfg Config) *Machine {
	m := &Machine{
		cfg: cfg,
		rom: make([]byte, cfg.ROMSize),
		ram: make([]byte, cfg.RAMSize),
		io:  make([]byte, cfg.IOSize),
	}
	for i := range m.timers {
		m.timers[i].unit = i
	}
	m.dirtyRAM = newDirtySet(cfg.RAMSize)
	m.dirtyIO = newDirtySet(cfg.IOSize)
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

// backing resolves a physical address range to its backing store, or nil if
// the range is not backed (a bus error on real hardware). Straight-line
// bank checks: this sits under every memory access of the simulator.
func (m *Machine) backing(addr Addr, size uint32) []byte {
	if off, ok := bankOffset(addr, size, m.cfg.RAMBase, m.ram); ok {
		return m.ram[off : off+uint64(size)]
	}
	if off, ok := bankOffset(addr, size, m.cfg.ROMBase, m.rom); ok {
		return m.rom[off : off+uint64(size)]
	}
	if off, ok := bankOffset(addr, size, m.cfg.IOBase, m.io); ok {
		return m.io[off : off+uint64(size)]
	}
	return nil
}

// Read reads size bytes at addr into a fresh slice, returning a
// data_access_exception trap for unbacked addresses. This is the raw bus
// access; permission checks belong to Space.Check and are the caller's
// (the kernel's) responsibility. Hot paths that can provide their own
// buffer use ReadInto and skip the allocation.
func (m *Machine) Read(addr Addr, size uint32) ([]byte, *Trap) {
	m.reads++
	b := m.backing(addr, size)
	if b == nil {
		m.trapsRaised++
		return nil, DataAccessTrap(addr, PermRead, "bus error: unbacked address")
	}
	out := make([]byte, size)
	copy(out, b)
	return out, nil
}

// ReadInto reads len(buf) bytes at addr into buf — the allocation-free
// form of Read, for the kernel's bulk-copy and string-walk paths. The
// bus and trap accounting is identical to Read's.
func (m *Machine) ReadInto(addr Addr, buf []byte) *Trap {
	m.reads++
	b := m.backing(addr, uint32(len(buf)))
	if b == nil {
		m.trapsRaised++
		return DataAccessTrap(addr, PermRead, "bus error: unbacked address")
	}
	copy(buf, b)
	return nil
}

// bankOffset resolves addr against one bank, returning the in-bank offset.
func bankOffset(addr Addr, size uint32, base Addr, mem []byte) (uint64, bool) {
	off := uint64(addr) - uint64(base)
	return off, uint64(addr) >= uint64(base) && off+uint64(size) <= uint64(len(mem))
}

// Write stores data at addr, trapping on unbacked addresses. Writes to ROM
// trap with a data_access_exception, as the PROM controller would. This is
// the simulator's hottest path, so the target bank is resolved exactly
// once, marking the dirty set with the offset already in hand.
func (m *Machine) Write(addr Addr, data []byte) *Trap {
	m.writes++
	size := uint32(len(data))
	if uint64(addr) >= uint64(m.cfg.ROMBase) &&
		uint64(addr)+uint64(size) <= uint64(m.cfg.ROMBase)+uint64(m.cfg.ROMSize) {
		m.trapsRaised++
		return DataAccessTrap(addr, PermWrite, "write to PROM")
	}
	if off, ok := bankOffset(addr, size, m.cfg.RAMBase, m.ram); ok {
		copy(m.ram[off:off+uint64(size)], data)
		if size > 0 {
			m.dirtyRAM.mark(off, size)
		}
		return nil
	}
	if off, ok := bankOffset(addr, size, m.cfg.IOBase, m.io); ok {
		copy(m.io[off:off+uint64(size)], data)
		if size > 0 {
			m.dirtyIO.mark(off, size)
		}
		return nil
	}
	m.trapsRaised++
	return DataAccessTrap(addr, PermWrite, "bus error: unbacked address")
}

// Read32 loads a big-endian word (SPARC is big-endian). It decodes
// straight out of the backing store — no per-word allocation.
func (m *Machine) Read32(addr Addr) (uint32, *Trap) {
	if uint32(addr)%4 != 0 {
		m.trapsRaised++
		return 0, AlignmentTrap(addr, PermRead)
	}
	m.reads++
	b := m.backing(addr, 4)
	if b == nil {
		m.trapsRaised++
		return 0, DataAccessTrap(addr, PermRead, "bus error: unbacked address")
	}
	return binary.BigEndian.Uint32(b), nil
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

// Read64 loads a big-endian doubleword, straight out of the backing
// store like Read32.
func (m *Machine) Read64(addr Addr) (uint64, *Trap) {
	if uint32(addr)%8 != 0 {
		m.trapsRaised++
		return 0, AlignmentTrap(addr, PermRead)
	}
	m.reads++
	b := m.backing(addr, 8)
	if b == nil {
		m.trapsRaised++
		return 0, DataAccessTrap(addr, PermRead, "bus error: unbacked address")
	}
	return binary.BigEndian.Uint64(b), nil
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
	collect := func(d dirtySet, base Addr, size uint32) {
		for wi, w := range d {
			if w == 0 {
				continue
			}
			for b := 0; b < 64; b++ {
				if w&(1<<b) == 0 {
					continue
				}
				off := (uint64(wi)*64 + uint64(b)) << dirtyPageShift
				if off < uint64(size) {
					out = append(out, base+Addr(off))
				}
			}
		}
	}
	collect(m.dirtyRAM, m.cfg.RAMBase, m.cfg.RAMSize)
	collect(m.dirtyIO, m.cfg.IOBase, m.cfg.IOSize)
	return out
}

// FlipBit inverts one bit of backed writable memory — the single-event-
// upset primitive. The touched page is marked dirty, so Reset scrubs an
// injected machine exactly like any other and it recycles through the
// pool without residue. Unlike Write, a flip models radiation, not a bus
// transaction: it bypasses the access counters and cannot trap; flips
// aimed at ROM or unbacked addresses report false and change nothing
// (PROM cells are not writable by an upset in this model). The bit index
// is taken modulo 8. Crashed machines refuse flips.
func (m *Machine) FlipBit(addr Addr, bit uint8) bool {
	if m.crashed {
		return false
	}
	if off, ok := bankOffset(addr, 1, m.cfg.RAMBase, m.ram); ok {
		m.ram[off] ^= 1 << (bit % 8)
		m.dirtyRAM.mark(off, 1)
		return true
	}
	if off, ok := bankOffset(addr, 1, m.cfg.IOBase, m.io); ok {
		m.io[off] ^= 1 << (bit % 8)
		m.dirtyIO.mark(off, 1)
		return true
	}
	return false
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

// Reset returns the machine to its power-on state in place: memory zeroed,
// clock at 0, timers disarmed, devices cleared, crash flag dropped. Only
// the pages written since the last reset are scrubbed, so the cost is
// proportional to what the previous run touched, not to the bank sizes.
// It is the scrub reference tests check the dirty tracker against.
func (m *Machine) Reset() {
	m.dirtyRAM.scrub(m.ram)
	m.dirtyIO.scrub(m.io)
	m.now = 0
	for i := range m.timers {
		m.timers[i] = TimerUnit{unit: i}
	}
	m.irqc = IRQController{}
	m.uart = UART{}
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
	case !m.dirtyRAM.empty() || !m.dirtyIO.empty():
		return fmt.Errorf("sparc: reset machine has undrained dirty pages")
	}
	for i := range m.timers {
		if armed, at := m.timers[i].Armed(); armed {
			return fmt.Errorf("sparc: reset machine timer %d armed for t=%d", i, at)
		}
	}
	return nil
}

// AuditPages scans n pages of the writable banks for residue, starting at
// a window that rotates with the reset count so successive audits sweep
// the whole bank over time. It is the cheap middle ground between
// VerifyReset (invariants only — it cannot see a page the dirty tracker
// missed) and VerifyClean (full scan): a dirty-tracking bug surfaces as an
// audit failure within a bounded number of recycles instead of leaking
// silently.
func (m *Machine) AuditPages(n int) error {
	banks := [...][]byte{m.ram, m.io}
	var total uint64
	pagesOf := func(mem []byte) uint64 {
		return (uint64(len(mem)) + (1 << dirtyPageShift) - 1) >> dirtyPageShift
	}
	for _, b := range banks {
		total += pagesOf(b)
	}
	if total == 0 {
		return nil
	}
	start := (m.resets * uint64(n)) % total
	for i := 0; i < n; i++ {
		page := (start + uint64(i)) % total
		mem, name := m.ram, "ram"
		if ramPages := pagesOf(m.ram); page >= ramPages {
			mem, name = m.io, "io"
			page -= ramPages
		}
		lo := page << dirtyPageShift
		hi := lo + (1 << dirtyPageShift)
		if hi > uint64(len(mem)) {
			hi = uint64(len(mem))
		}
		// Word-wise scan; on a hit, pin down the exact byte for the
		// error message. Pages are power-of-two sized so only the last
		// page of a bank can leave a sub-word tail.
		off := lo
		for ; off+8 <= hi; off += 8 {
			if binary.BigEndian.Uint64(mem[off:off+8]) != 0 {
				break
			}
		}
		for ; off < hi; off++ {
			if mem[off] != 0 {
				return fmt.Errorf("sparc: %s residue at page %d offset %#x (untracked write?)",
					name, page, off)
			}
		}
	}
	return nil
}

// VerifyClean is the exhaustive form of VerifyReset: it additionally scans
// every byte of ROM, RAM and I/O space for residue of a previous run. It
// is the ground truth the reset-isolation tests (and the pool's strict
// mode) check the dirty-page bookkeeping against.
func (m *Machine) VerifyClean() error {
	if err := m.VerifyReset(); err != nil {
		return err
	}
	for _, bank := range []struct {
		name string
		base Addr
		mem  []byte
	}{
		{"rom", m.cfg.ROMBase, m.rom},
		{"ram", m.cfg.RAMBase, m.ram},
		{"io", m.cfg.IOBase, m.io},
	} {
		for i, b := range bank.mem {
			if b != 0 {
				return fmt.Errorf("sparc: %s residue: byte %#x at %#x",
					bank.name, b, uint64(bank.base)+uint64(i))
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
