package sparc

import (
	"bytes"
	"testing"
)

// TestResetScrubsFlipsAndCrash composes Reset with the inject
// primitives: peek-poke flips mark pages dirty exactly like stores, and
// a clock flip and a crash ride along, so a machine dirtied, flipped
// and crashed must come back in a state VerifyClean accepts.
func TestResetScrubsFlipsAndCrash(t *testing.T) {
	m := dirtyMachine(t)
	if !m.FlipBit(m.Config().RAMBase+0x500000, 5) {
		t.Fatal("flip refused")
	}
	m.FlipClockBit(7)
	m.Crash("leg crashed")
	m.Reset()
	if err := m.VerifyClean(); err != nil {
		t.Fatalf("reset machine not at power-on: %v", err)
	}
}

func TestSnapshotPoolRecyclesThroughRestore(t *testing.T) {
	p := NewSnapshotPool(DefaultConfig(), 4)
	m := p.Get()
	if tr := m.Write(m.Config().RAMBase, []byte{9, 9, 9}); tr != nil {
		t.Fatal(tr)
	}
	p.Put(m)
	m2 := p.Get()
	if m2 != m {
		t.Fatal("pool did not recycle the machine")
	}
	if err := m2.VerifyClean(); err != nil {
		t.Fatalf("recycled machine dirty: %v", err)
	}
	st := p.Stats()
	if st.Allocated != 1 || st.Reused != 1 || st.Discarded != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPoolRecycleKeepsHost: what the harness parks on a machine rides
// through the pool's Reset, so the machine's next run finds it.
func TestPoolRecycleKeepsHost(t *testing.T) {
	p := NewSnapshotPool(DefaultConfig(), 1)
	m := p.Get()
	m.SetHost("parked")
	p.Put(m)
	if got := p.Get(); got != m || got.Host() != "parked" {
		t.Fatalf("recycled machine lost its host: %v", got.Host())
	}
}

func TestSnapshotPoolDiscardsCrashedMachines(t *testing.T) {
	p := NewSnapshotPool(DefaultConfig(), 4)
	m := p.Get()
	m.Crash("simulator died")
	p.Put(m)
	m2 := p.Get()
	if m2 == m {
		t.Fatal("pool recycled a crashed machine")
	}
	if st := p.Stats(); st.Discarded != 1 || st.Allocated != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotPoolStrictModeScans(t *testing.T) {
	p := NewSnapshotPool(DefaultConfig(), 4)
	p.SetStrict(true)
	m := p.Get()
	p.Put(m)
	// Mutate behind the tracker's back: Reset rides the dirty bitmaps
	// and cannot see this, so strict verification must refuse
	// the recycle and fall back to a fresh machine.
	m.ram[7] = 0xff
	m2 := p.Get()
	if m2 == m {
		t.Fatal("strict snapshot pool recycled a machine with untracked residue")
	}
	if st := p.Stats(); st.Discarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSnapshotPoolResidueSweep hammers the recycle loop with dirty,
// flipped and crashed machines under strict mode: every Get must come
// back byte-clean: the pool's reset-isolation guarantee.
func TestSnapshotPoolResidueSweep(t *testing.T) {
	p := NewSnapshotPool(DefaultConfig(), 2)
	p.SetStrict(true)
	for i := 0; i < 12; i++ {
		m := p.Get()
		if err := m.VerifyClean(); err != nil {
			t.Fatalf("recycle %d: %v", i, err)
		}
		addr := m.Config().RAMBase + Addr(i)<<dirtyPageShift
		if tr := m.Write(addr, []byte{byte(i + 1)}); tr != nil {
			t.Fatal(tr)
		}
		m.FlipBit(addr+DirtyPageSize, uint8(i))
		if i%3 == 0 {
			m.Crash("sweep crash")
		}
		p.Put(m)
	}
}

func TestReadIntoMatchesRead(t *testing.T) {
	m := NewDefaultMachine()
	if tr := m.Write(m.Config().RAMBase+8, []byte{1, 2, 3, 4, 5}); tr != nil {
		t.Fatal(tr)
	}
	want, tr := m.Read(m.Config().RAMBase+8, 5)
	if tr != nil {
		t.Fatal(tr)
	}
	got := make([]byte, 5)
	if tr := m.ReadInto(m.Config().RAMBase+8, got); tr != nil {
		t.Fatal(tr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadInto = %x, Read = %x", got, want)
	}
	if tr := m.ReadInto(0xdeadbeef, got); tr == nil {
		t.Fatal("ReadInto of an unbacked address did not trap")
	}
}
