package sparc

import "testing"

// dirtyMachine powers on a machine and leaves realistic residue: memory
// stores across banks, an armed timer, console output, a raised interrupt
// and an advanced clock.
func dirtyMachine(t *testing.T) *Machine {
	t.Helper()
	m := NewDefaultMachine()
	if tr := m.Write(m.cfg.RAMBase+0x1234, []byte{0xde, 0xad, 0xbe, 0xef}); tr != nil {
		t.Fatal(tr)
	}
	if tr := m.Write32(m.cfg.IOBase+0x40, 0xcafe); tr != nil {
		t.Fatal(tr)
	}
	// A write spanning a page boundary must dirty both pages.
	if tr := m.Write(m.cfg.RAMBase+Addr(1<<dirtyPageShift)-2, []byte{1, 2, 3, 4}); tr != nil {
		t.Fatal(tr)
	}
	m.Timer(0).Arm(500, func(m *Machine, unit int, at Time) {})
	m.UART().WriteString("residue\n")
	m.IRQ().Raise(4)
	if err := m.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestResetScrubsEverything(t *testing.T) {
	m := dirtyMachine(t)
	if err := m.VerifyClean(); err == nil {
		t.Fatal("dirty machine passed VerifyClean")
	}
	m.Reset()
	if err := m.VerifyClean(); err != nil {
		t.Fatalf("reset machine not clean: %v", err)
	}
	if m.Resets() != 1 {
		t.Fatalf("resets = %d", m.Resets())
	}
}

func TestResetClearsCrash(t *testing.T) {
	m := NewDefaultMachine()
	m.Crash("test")
	m.Reset()
	if crashed, _ := m.Crashed(); crashed {
		t.Fatal("reset machine still crashed")
	}
	if err := m.AdvanceTo(10); err != nil {
		t.Fatalf("reset machine refuses to run: %v", err)
	}
}

func TestVerifyCleanFindsRawResidue(t *testing.T) {
	m := NewDefaultMachine()
	// Simulate a bookkeeping escape: memory mutated behind the dirty
	// tracker's back.
	m.ram[42] = 1
	if err := m.VerifyClean(); err == nil {
		t.Fatal("raw residue not detected")
	}
}

func TestAuditPagesSweepsWholeBank(t *testing.T) {
	m := NewDefaultMachine()
	// Residue the dirty tracker knows nothing about, far into RAM.
	m.ram[len(m.ram)-100] = 0xaa
	found := false
	for i := 0; i < len(m.ram)/(8<<dirtyPageShift)+len(m.io)/(8<<dirtyPageShift)+2; i++ {
		if err := m.AuditPages(8); err != nil {
			found = true
			break
		}
		m.resets++ // advance the rotating window as a pool recycle would
	}
	if !found {
		t.Fatal("a full sweep of rotating audits missed the residue")
	}
}

func TestPoolCapsRetention(t *testing.T) {
	p := NewSnapshotPool(DefaultConfig(), 1)
	a, b := p.Get(), p.Get()
	p.Put(a)
	p.Put(b) // over capacity: silently dropped
	if got := p.Get(); got != a {
		t.Fatal("expected the one retained machine")
	}
	if got := p.pop(); got != nil {
		t.Fatalf("free list still holds %p", got)
	}
}
