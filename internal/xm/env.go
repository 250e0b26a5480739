package xm

import (
	"encoding/binary"

	"xmrobust/internal/sparc"
)

// guestEnv implements Env for the partition currently holding the CPU.
type guestEnv struct {
	k  *Kernel
	sc *slotCtx
}

func (e *guestEnv) PartitionID() int { return e.sc.p.ID() }

func (e *guestEnv) Now() Time { return e.k.machine.Now() }

func (e *guestEnv) SlotRemaining() Time { return e.sc.remaining() }

func (e *guestEnv) Compute(d Time) {
	if d > 0 {
		e.k.charge(d)
	}
}

// Hypercall traps into the kernel. After the service returns, machine time
// is synchronised and the consequences of the call are applied: if the
// calling partition is no longer running — it reset itself, the system is
// resetting, the hypervisor halted, or the simulator crashed — control does
// not return to the guest (modelled with the guestStop panic the scheduler
// absorbs).
func (e *guestEnv) Hypercall(nr Nr, args ...uint64) RetCode {
	k, p := e.k, e.sc.p
	ret := k.dispatch(p, nr, args)
	if err := k.sync(e.sc); err != nil {
		panic(guestStop{reason: err.Error()})
	}
	k.handleOverrun(e.sc)
	e.checkConsequences()
	return ret
}

// Hypercall4 is the fixed-arity fast path of Hypercall: identical
// semantics with exactly four arguments (the dispatcher zero-fills
// missing ones and ignores extras, so padding with zeros is free),
// without the variadic slice escaping to the heap on every call.
func (e *guestEnv) Hypercall4(nr Nr, a0, a1, a2, a3 uint64) RetCode {
	args := [4]uint64{a0, a1, a2, a3}
	k, p := e.k, e.sc.p
	ret := k.dispatch(p, nr, args[:])
	if err := k.sync(e.sc); err != nil {
		panic(guestStop{reason: err.Error()})
	}
	k.handleOverrun(e.sc)
	e.checkConsequences()
	return ret
}

// checkConsequences aborts guest execution when the world changed under it.
func (e *guestEnv) checkConsequences() {
	k, p := e.k, e.sc.p
	if crashed, why := k.machine.Crashed(); crashed {
		panic(guestStop{reason: "simulator crashed: " + why})
	}
	if k.state != KStateRunning {
		panic(guestStop{reason: "hypervisor halted"})
	}
	if k.pendingSysReset {
		panic(guestStop{reason: "system reset in progress"})
	}
	if p.state != PStateNormal {
		panic(guestStop{reason: "partition no longer running: " + p.state.String()})
	}
}

// Read copies size bytes out of the partition's address space. A spatial
// violation is reported to the health monitor (the guest performed an
// illegal access) and, if the configured action stopped the partition,
// control does not return.
func (e *guestEnv) Read(addr sparc.Addr, size uint32) ([]byte, bool) {
	k, p := e.k, e.sc.p
	if tr := p.space.Check(addr, size, sparc.PermRead); tr != nil {
		k.raiseHM(HMEvMemProtection, p, tr.String())
		e.checkConsequences()
		return nil, false
	}
	data, tr := k.machine.Read(addr, size)
	if tr != nil {
		k.raiseHM(HMEvMemProtection, p, tr.String())
		e.checkConsequences()
		return nil, false
	}
	return data, true
}

// ReadInto copies len(buf) bytes from the partition's address space into
// a caller-owned buffer — the allocation-free sibling of Read, surfaced
// to guests as the optional ReaderInto capability.
func (e *guestEnv) ReadInto(addr sparc.Addr, buf []byte) bool {
	k, p := e.k, e.sc.p
	if len(buf) == 0 {
		return true
	}
	if tr := p.space.Check(addr, uint32(len(buf)), sparc.PermRead); tr != nil {
		k.raiseHM(HMEvMemProtection, p, tr.String())
		e.checkConsequences()
		return false
	}
	if tr := k.machine.ReadInto(addr, buf); tr != nil {
		k.raiseHM(HMEvMemProtection, p, tr.String())
		e.checkConsequences()
		return false
	}
	return true
}

// Write copies data into the partition's address space, with the same
// spatial-violation semantics as Read.
func (e *guestEnv) Write(addr sparc.Addr, data []byte) bool {
	k, p := e.k, e.sc.p
	if tr := p.space.Check(addr, uint32(len(data)), sparc.PermWrite); tr != nil {
		k.raiseHM(HMEvMemProtection, p, tr.String())
		e.checkConsequences()
		return false
	}
	if tr := k.machine.Write(addr, data); tr != nil {
		k.raiseHM(HMEvMemProtection, p, tr.String())
		e.checkConsequences()
		return false
	}
	return true
}

// --- kernel-side guest memory accessors ---------------------------------
//
// Hypercall services use these to dereference guest pointers *with*
// validation against the caller's space; the seeded legacy paths that skip
// validation use the unchecked variants and take the consequences.

// copyFromGuest validates and reads size bytes at addr in p's space.
func (k *Kernel) copyFromGuest(p *Partition, addr sparc.Addr, size uint32) ([]byte, bool) {
	if size == 0 {
		return nil, true
	}
	if !p.space.Allows(addr, size, sparc.PermRead) {
		return nil, false
	}
	data, tr := k.machine.Read(addr, size)
	return data, tr == nil
}

// copyFromGuestInto validates and reads len(buf) bytes at addr in p's
// space into a caller-owned buffer, avoiding the per-call allocation of
// copyFromGuest on hot service paths.
func (k *Kernel) copyFromGuestInto(p *Partition, addr sparc.Addr, buf []byte) bool {
	if len(buf) == 0 {
		return true
	}
	if !p.space.Allows(addr, uint32(len(buf)), sparc.PermRead) {
		return false
	}
	return k.machine.ReadInto(addr, buf) == nil
}

// copyToGuest validates and writes data at addr in p's space.
func (k *Kernel) copyToGuest(p *Partition, addr sparc.Addr, data []byte) bool {
	if len(data) == 0 {
		return true
	}
	if !p.space.Allows(addr, uint32(len(data)), sparc.PermWrite) {
		return false
	}
	return k.machine.Write(addr, data) == nil
}

// guestWritable reports whether [addr, addr+size) is writable by p.
func (k *Kernel) guestWritable(p *Partition, addr sparc.Addr, size uint32) bool {
	return p.space.Allows(addr, size, sparc.PermWrite)
}

// guestReadable reports whether [addr, addr+size) is readable by p.
func (k *Kernel) guestReadable(p *Partition, addr sparc.Addr, size uint32) bool {
	return p.space.Allows(addr, size, sparc.PermRead)
}

// readGuestString reads a NUL-terminated string of at most max bytes
// into buf (usually a stack array resliced to zero length — every caller
// only compares the name, so nothing heap-allocates on this path). The
// fast path reads whole chunks when the caller's space admits them; the
// byte-wise fallback preserves the exact semantics of a byte-at-a-time
// probe — a string whose terminator lands before the first unreadable
// byte still succeeds.
func (k *Kernel) readGuestString(p *Partition, addr sparc.Addr, max uint32, buf []byte) ([]byte, bool) {
	var chunk [64]byte
	out := buf
	for i := uint32(0); i < max; {
		n := max - i
		if n > uint32(len(chunk)) {
			n = uint32(len(chunk))
		}
		a := addr + sparc.Addr(i)
		if p.space.Allows(a, n, sparc.PermRead) && k.machine.ReadInto(a, chunk[:n]) == nil {
			for j := uint32(0); j < n; j++ {
				if chunk[j] == 0 {
					return append(out, chunk[:j]...), true
				}
			}
			out = append(out, chunk[:n]...)
			i += n
			continue
		}
		// Chunk not fully readable: probe byte by byte so a terminator
		// before the faulting byte still counts.
		for ; i < max; i++ {
			b, ok := k.copyFromGuest(p, addr+sparc.Addr(i), 1)
			if !ok {
				return nil, false
			}
			if b[0] == 0 {
				return out, true
			}
			out = append(out, b[0])
		}
	}
	return nil, false // unterminated within max
}

// be32/be64 build big-endian encodings for guest-visible structures.
func be32(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

func be64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// packWords concatenates big-endian words into one guest structure image.
func packWords(words ...uint32) []byte {
	out := make([]byte, 0, 4*len(words))
	for _, w := range words {
		out = append(out, be32(w)...)
	}
	return out
}
