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
	if tr := m.Write(m.cfg.RAMBase+DirtyPageSize-2, []byte{1, 2, 3, 4}); tr != nil {
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

// poke stores v at addr behind the dirty tracker's back: the page gets
// its storage but is not marked dirty, so Reset does not clear it. It
// is the bookkeeping escape VerifyClean and AuditPages exist to catch.
func poke(m *Machine, addr Addr, v byte) {
	b, off := m.backing(addr, 1)
	b.storage(off >> pageShift)[off&pageMask] = v
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
	poke(m, m.cfg.RAMBase+42, 1)
	if err := m.VerifyClean(); err == nil {
		t.Fatal("raw residue not detected")
	}
}

// TestAuditPagesSweepsWholeBank: residue the dirty tracker knows
// nothing about, in any allocated page of either writable bank, surfaces
// within ceil(allocated/8) successive 8-page audits, wherever the
// rotating window happens to stand.
func TestAuditPagesSweepsWholeBank(t *testing.T) {
	// Pages spread over RAM, its last page included, and two in I/O.
	var stores []Addr
	for i := Addr(0); i < 18; i++ {
		stores = append(stores, DefaultRAMBase+i*Addr(DefaultRAMSize/18)&^pageMask)
	}
	stores = append(stores, DefaultRAMBase+Addr(DefaultRAMSize)-4, DefaultIOBase, DefaultIOBase+Addr(DefaultIOSize)-4)
	for victim := range stores {
		m := NewDefaultMachine()
		for _, a := range stores {
			if tr := m.Write32(a, 0xffffffff); tr != nil {
				t.Fatal(tr)
			}
		}
		m.Reset()
		allocated := len(m.ram.alloc) + len(m.io.alloc)
		if allocated != len(stores) {
			t.Fatalf("%d stores to distinct pages allocated %d pages", len(stores), allocated)
		}
		// Park the window somewhere different for each victim.
		for range victim % 5 {
			if err := m.AuditPages(3); err != nil {
				t.Fatal(err)
			}
		}
		poke(m, stores[victim]+1, 0xaa)
		audits, found := (allocated+7)/8, false
		for range audits {
			if m.AuditPages(8) != nil {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%d audits over %d allocated pages missed residue at %#x",
				audits, allocated, uint32(stores[victim]+1))
		}
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
