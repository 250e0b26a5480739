package sparc

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestMachinePowerOnState(t *testing.T) {
	m := NewDefaultMachine()
	if m.Now() != 0 {
		t.Fatalf("clock at power-on = %d, want 0", m.Now())
	}
	if crashed, _ := m.Crashed(); crashed {
		t.Fatal("machine crashed at power-on")
	}
	for i := 0; i < NumTimerUnits; i++ {
		if armed, _ := m.Timer(i).Armed(); armed {
			t.Fatalf("timer %d armed at power-on", i)
		}
	}
}

// machineSink keeps built machines reachable, so the compiler cannot
// drop or stack-allocate what TestNewMachineAllocatesPagesNotBanks
// measures.
var machineSink *Machine

// TestNewMachineAllocatesPagesNotBanks: a machine costs its page tables,
// not its 18 MiB of banks; a store costs the one page it lands in, and
// storing to a page again after a Reset costs nothing.
func TestNewMachineAllocatesPagesNotBanks(t *testing.T) {
	const builds = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range builds {
		machineSink = NewDefaultMachine()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per > 64<<10 {
		t.Fatalf("NewDefaultMachine allocates %d bytes on average, want at most 64 KiB", per)
	}

	m := NewDefaultMachine()
	addr := m.cfg.RAMBase + 0x5678
	if tr := m.Write(addr, []byte{1}); tr != nil {
		t.Fatal(tr)
	}
	pages := 0
	for _, b := range []*bank{&m.rom, &m.ram, &m.io} {
		for _, p := range b.pages {
			if p != nil {
				pages++
			}
		}
	}
	if pages != 1 || len(m.ram.alloc) != 1 {
		t.Fatalf("storing one byte gave %d pages storage (%d listed), want 1", pages, len(m.ram.alloc))
	}

	one, two := []byte{1}, []byte{2}
	if allocs := testing.AllocsPerRun(100, func() {
		m.Write(addr, one)
		m.Reset()
		m.Write(addr, two)
	}); allocs != 0 {
		t.Fatalf("store, Reset, store to the same page: %v allocations, want 0", allocs)
	}
}

func TestMachineRAMReadWriteRoundTrip(t *testing.T) {
	m := NewDefaultMachine()
	addr := DefaultRAMBase + 0x100
	if tr := m.Write32(addr, 0xDEADBEEF); tr != nil {
		t.Fatalf("Write32: %v", tr)
	}
	v, tr := m.Read32(addr)
	if tr != nil {
		t.Fatalf("Read32: %v", tr)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("Read32 = %#x, want 0xDEADBEEF", v)
	}
}

func TestMachineBigEndianLayout(t *testing.T) {
	m := NewDefaultMachine()
	addr := DefaultRAMBase
	if tr := m.Write32(addr, 0x11223344); tr != nil {
		t.Fatalf("Write32: %v", tr)
	}
	b, tr := m.Read(addr, 4)
	if tr != nil {
		t.Fatalf("Read: %v", tr)
	}
	want := []byte{0x11, 0x22, 0x33, 0x44}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x (SPARC is big-endian)", i, b[i], want[i])
		}
	}
}

func TestMachineRead64RoundTrip(t *testing.T) {
	m := NewDefaultMachine()
	addr := DefaultRAMBase + 0x200
	const v = uint64(0x0102030405060708)
	if tr := m.Write64(addr, v); tr != nil {
		t.Fatalf("Write64: %v", tr)
	}
	got, tr := m.Read64(addr)
	if tr != nil {
		t.Fatalf("Read64: %v", tr)
	}
	if got != v {
		t.Fatalf("Read64 = %#x, want %#x", got, v)
	}
}

func TestMachineUnbackedAddressTraps(t *testing.T) {
	m := NewDefaultMachine()
	// Far above the I/O bank.
	_, tr := m.Read32(0xF0000000)
	if tr == nil {
		t.Fatal("read of unbacked address did not trap")
	}
	if tr.Type != TrapDataAccessException {
		t.Fatalf("trap type = %v, want data_access_exception", tr.Type)
	}
}

func TestMachineROMIsReadOnly(t *testing.T) {
	m := NewDefaultMachine()
	if tr := m.Write32(DefaultROMBase+0x10, 1); tr == nil {
		t.Fatal("write to PROM did not trap")
	}
	if _, tr := m.Read32(DefaultROMBase + 0x10); tr != nil {
		t.Fatalf("read from PROM trapped: %v", tr)
	}
}

func TestMachineMisalignedAccessTraps(t *testing.T) {
	m := NewDefaultMachine()
	for _, tc := range []struct {
		addr Addr
		ok   bool
	}{
		{DefaultRAMBase + 1, false},
		{DefaultRAMBase + 2, false},
		{DefaultRAMBase + 3, false},
		{DefaultRAMBase + 4, true},
	} {
		_, tr := m.Read32(tc.addr)
		if (tr == nil) != tc.ok {
			t.Errorf("Read32(0x%08X) trap=%v, want ok=%v", uint32(tc.addr), tr, tc.ok)
		}
		if tr != nil && tr.Type != TrapMemAddressNotAligned {
			t.Errorf("Read32(0x%08X) trap type = %v, want mem_address_not_aligned", uint32(tc.addr), tr.Type)
		}
	}
	if _, tr := m.Read64(DefaultRAMBase + 4); tr == nil || tr.Type != TrapMemAddressNotAligned {
		t.Errorf("Read64 at 4-byte alignment: trap = %v, want alignment trap", tr)
	}
}

func TestMachineAdvanceMonotonic(t *testing.T) {
	m := NewDefaultMachine()
	if err := m.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	if m.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000", m.Now())
	}
	// Backwards is a no-op, not a rewind.
	if err := m.AdvanceTo(500); err != nil {
		t.Fatal(err)
	}
	if m.Now() != 1000 {
		t.Fatalf("Now after backwards AdvanceTo = %d, want 1000", m.Now())
	}
}

func TestTimerFiresAtExpiry(t *testing.T) {
	m := NewDefaultMachine()
	var firedAt Time = -1
	m.Timer(0).Arm(250, func(m *Machine, unit int, at Time) {
		firedAt = m.Now()
		if unit != 0 {
			t.Errorf("handler unit = %d, want 0", unit)
		}
	})
	if err := m.AdvanceTo(200); err != nil {
		t.Fatal(err)
	}
	if firedAt != -1 {
		t.Fatal("timer fired before expiry")
	}
	if err := m.AdvanceTo(300); err != nil {
		t.Fatal(err)
	}
	if firedAt != 250 {
		t.Fatalf("timer fired at %d, want 250 (clock must be at expiry inside handler)", firedAt)
	}
}

func TestTimerReArmInHandlerRunsSameAdvance(t *testing.T) {
	m := NewDefaultMachine()
	var fires []Time
	var h TimerHandler
	h = func(m *Machine, unit int, at Time) {
		fires = append(fires, m.Now())
		if len(fires) < 3 {
			m.Timer(0).Arm(at+10, h)
		}
	}
	m.Timer(0).Arm(100, h)
	if err := m.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	want := []Time{100, 110, 120}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestTimerReArmInPastFiresImmediately(t *testing.T) {
	// The mechanism behind the paper's XM_set_timer(0,1,1) finding: a
	// handler re-arming in the past must be called again within the same
	// AdvanceTo, so a kernel with no minimum interval recurses.
	m := NewDefaultMachine()
	n := 0
	var h TimerHandler
	h = func(m *Machine, unit int, at Time) {
		n++
		if n < 100 {
			m.Timer(0).Arm(at, h) // always already due
		}
	}
	m.Timer(0).Arm(1, h)
	if err := m.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("handler ran %d times, want 100 (stuck-in-the-past expiry must storm)", n)
	}
	if m.Now() != 2 {
		t.Fatalf("Now = %d, want 2", m.Now())
	}
}

func TestTwoTimersFireInExpiryOrder(t *testing.T) {
	m := NewDefaultMachine()
	var order []int
	m.Timer(1).Arm(50, func(m *Machine, unit int, at Time) { order = append(order, 1) })
	m.Timer(0).Arm(70, func(m *Machine, unit int, at Time) { order = append(order, 0) })
	if err := m.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("fire order = %v, want [1 0]", order)
	}
}

func TestTimerTieBreaksByUnitNumber(t *testing.T) {
	m := NewDefaultMachine()
	var order []int
	m.Timer(1).Arm(50, func(m *Machine, unit int, at Time) { order = append(order, 1) })
	m.Timer(0).Arm(50, func(m *Machine, unit int, at Time) { order = append(order, 0) })
	if err := m.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("fire order = %v, want [0 1]", order)
	}
}

func TestCrashStopsMachine(t *testing.T) {
	m := NewDefaultMachine()
	m.Timer(0).Arm(10, func(m *Machine, unit int, at Time) {
		m.Crash("timer trap escaped to simulator")
	})
	err := m.AdvanceTo(100)
	if err == nil {
		t.Fatal("AdvanceTo after crash returned nil error")
	}
	if _, ok := err.(ErrCrashed); !ok {
		t.Fatalf("error type = %T, want ErrCrashed", err)
	}
	crashed, reason := m.Crashed()
	if !crashed || !strings.Contains(reason, "timer trap") {
		t.Fatalf("Crashed() = %v %q", crashed, reason)
	}
	// Time must not run past the crash.
	if m.Now() != 10 {
		t.Fatalf("Now = %d, want 10 (crash instant)", m.Now())
	}
}

func TestCrashIsSticky(t *testing.T) {
	m := NewDefaultMachine()
	m.Crash("first")
	m.Crash("second")
	_, reason := m.Crashed()
	if reason != "first" {
		t.Fatalf("crash reason = %q, want the first one to stick", reason)
	}
}

// Property: for any word value and any aligned in-RAM offset, a write
// followed by a read returns the same value and never traps.
func TestPropertyRAMWordRoundTrip(t *testing.T) {
	m := NewDefaultMachine()
	f := func(off uint32, v uint32) bool {
		addr := DefaultRAMBase + Addr(off%(DefaultRAMSize-4)&^3)
		if tr := m.Write32(addr, v); tr != nil {
			return false
		}
		got, tr := m.Read32(addr)
		return tr == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: reads never mutate memory — two consecutive reads agree.
func TestPropertyReadIsPure(t *testing.T) {
	m := NewDefaultMachine()
	f := func(off uint32) bool {
		addr := DefaultRAMBase + Addr(off%(DefaultRAMSize-8))
		a, tr1 := m.Read(addr, 8)
		b, tr2 := m.Read(addr, 8)
		if (tr1 == nil) != (tr2 == nil) {
			return false
		}
		if tr1 != nil {
			return true
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCount(t *testing.T) {
	m := NewDefaultMachine()
	m.Write32(DefaultRAMBase, 1)
	m.Read32(DefaultRAMBase)
	m.Read32(0xF0000000) // traps
	r, w, traps := m.Stats()
	if r != 2 || w != 1 || traps != 1 {
		t.Fatalf("stats = (%d,%d,%d), want (2,1,1)", r, w, traps)
	}
}
