package xm

import "xmrobust/internal/sparc"

// --- Sparc V8 Specific -------------------------------------------------------
//
// Para-virtualised replacements for the privileged SPARC instructions a
// guest OS cannot execute directly under the hypervisor. All parameters
// are validated; the paper's campaign raised no issues in this category.

// atomicOp selects the read-modify-write operation of the atomic services.
type atomicOp int

const (
	atomicAdd atomicOp = iota
	atomicAnd
	atomicOr
)

// hcSparcAtomic implements XM_sparc_atomic_{add,and,or}(dest, value): an
// interrupt-atomic read-modify-write on a naturally aligned word in the
// caller's space. Returns the new value's low 31 bits.
func (k *Kernel) hcSparcAtomic(caller *Partition, dest sparc.Addr, value uint32, op atomicOp) RetCode {
	if uint32(dest)%4 != 0 {
		return InvalidParam
	}
	if !caller.space.Allows(dest, 4, sparc.PermRead|sparc.PermWrite) {
		return InvalidParam
	}
	old, tr := k.machine.Read32(dest)
	if tr != nil {
		return InvalidParam
	}
	var nv uint32
	switch op {
	case atomicAdd:
		k.cov(NrSparcAtomicAdd, 0)
		nv = old + value
	case atomicAnd:
		k.cov(NrSparcAtomicAnd, 0)
		nv = old & value
	case atomicOr:
		k.cov(NrSparcAtomicOr, 0)
		nv = old | value
	}
	if tr := k.machine.Write32(dest, nv); tr != nil {
		return InvalidParam
	}
	return RetCode(nv & 0x7FFFFFFF)
}

// numIOPorts is the size of the simulated I/O register bank the port
// services may address.
const numIOPorts = 64

// hcSparcInPort implements XM_sparc_inport(port, value*): reads one I/O
// register into guest memory. Requires the configuration to grant the
// partition I/O access.
func (k *Kernel) hcSparcInPort(caller *Partition, portNo uint32, ptr sparc.Addr) RetCode {
	if !caller.cfg.IOPorts {
		return PermError
	}
	if portNo >= numIOPorts {
		return InvalidParam
	}
	if !k.guestWritable(caller, ptr, 4) {
		return InvalidParam
	}
	v, tr := k.machine.Read32(k.machine.Config().IOBase + sparc.Addr(portNo*4))
	if tr != nil {
		return InvalidParam
	}
	if !k.copyToGuest(caller, ptr, be32(v)) {
		return InvalidParam
	}
	return OK
}

// hcSparcOutPort implements XM_sparc_outport(port, value): writes one I/O
// register.
func (k *Kernel) hcSparcOutPort(caller *Partition, portNo, value uint32) RetCode {
	if !caller.cfg.IOPorts {
		return PermError
	}
	if portNo >= numIOPorts {
		return InvalidParam
	}
	if tr := k.machine.Write32(k.machine.Config().IOBase+sparc.Addr(portNo*4), value); tr != nil {
		return InvalidParam
	}
	return OK
}

// psrWritableMask is the set of PSR bits a guest may set through
// XM_sparc_set_psr (condition codes, the ET/PIL fields the hypervisor
// virtualises). Supervisor and version bits are not writable.
const psrWritableMask uint32 = 0x00F00F20

// hcSparcSetPsr implements XM_sparc_set_psr(psr).
func (k *Kernel) hcSparcSetPsr(caller *Partition, psr uint32) RetCode {
	if psr&^psrWritableMask != 0 {
		return InvalidParam
	}
	caller.psr = psr
	return OK
}

// hcSparcWriteTbr implements XM_sparc_write_tbr(tbr): installs the guest's
// virtual trap base, which must be 4 KiB aligned and inside the caller's
// space.
func (k *Kernel) hcSparcWriteTbr(caller *Partition, tbr uint32) RetCode {
	if tbr%4096 != 0 {
		k.cov(NrSparcWriteTbr, 0) // unaligned trap base
		return InvalidParam
	}
	if !caller.space.Allows(sparc.Addr(tbr), 4096, sparc.PermRead) {
		k.cov(NrSparcWriteTbr, 1) // trap table outside the caller's space
		return InvalidParam
	}
	caller.tbr = tbr
	return OK
}

// hcSparcIFlush implements XM_sparc_iflush(addr): flushes the instruction
// cache line holding addr, which must be mapped by the caller.
func (k *Kernel) hcSparcIFlush(caller *Partition, addr sparc.Addr) RetCode {
	if !caller.space.Allows(addr, 4, sparc.PermRead) {
		return InvalidParam
	}
	k.charge(1)
	return OK
}
