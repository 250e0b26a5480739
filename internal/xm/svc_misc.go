package xm

import (
	"encoding/binary"
	"fmt"

	"xmrobust/internal/sparc"
)

// --- Miscellaneous ----------------------------------------------------------

// hcMulticall implements XM_multicall(startAddr, endAddr): executes the
// batch of hypercall records encoded in [startAddr, endAddr).
//
// Paper issues MSC-1..MSC-3 live here. The legacy implementation:
//
//   - does not validate the batch pointers against the caller's memory
//     areas, so an invalid startAddr (or a wrapped range) makes the kernel
//     itself take an unhandled data-access exception while walking the
//     batch (MSC-1/MSC-2);
//
//   - does not bound the batch against the remaining slot time, so a
//     large valid batch "may require multiple time consuming services ...
//     preventing nominal context switching as required by the scheduling
//     plan" — a temporal-isolation violation (MSC-3).
//
// The patched kernel removes the service ("temporarily removed by the XM
// development team"), returning XM_OP_NOT_ALLOWED.
func (k *Kernel) hcMulticall(caller *Partition, start, end sparc.Addr) RetCode {
	if k.faults.MulticallRemoved {
		return OpNotAllowed
	}
	// Legacy: no pointer validation whatsoever. The entry count is
	// computed in wrapping 32-bit arithmetic, so end < start yields a
	// huge batch.
	count := (uint32(end) - uint32(start)) / MulticallEntrySize
	if count == 0 {
		return NoAction
	}
	var executed uint32
	for i := uint32(0); i < count; i++ {
		// Batch processing is kernel work and cannot be preempted at the
		// slot boundary: once it exceeds the budget, the scheduling plan
		// has already been violated and the health monitor records it.
		if sc := k.cur; sc != nil && sc.used > sc.budget {
			k.cov(NrMulticall, 0) // batch outran the slot budget (MSC-3)
			k.declareOverrun(fmt.Sprintf(
				"XM_multicall batch of %d entries exceeded the slot budget after %d entries",
				count, executed))
			return OK // never observed: the partition is preempted
		}
		// The walk dereferences the guest pointer through the caller's MMU
		// context with no prior validation: an unmapped address traps in
		// kernel context — the "unhandled data access exception" of the
		// paper.
		addr := start + sparc.Addr(i*MulticallEntrySize)
		if tr := caller.space.Check(addr, MulticallEntrySize, sparc.PermRead); tr != nil {
			k.cov(NrMulticall, 1) // unvalidated batch walk trapped (MSC-1/2)
			k.raiseHM(HMEvMemProtection, caller,
				"unhandled data access exception in XM_multicall batch walk: "+tr.String())
			return OK // never observed: the partition was stopped
		}
		var raw [MulticallEntrySize]byte
		if tr := k.machine.ReadInto(addr, raw[:]); tr != nil {
			k.raiseHM(HMEvMemProtection, caller,
				"unhandled data access exception in XM_multicall batch walk: "+tr.String())
			return OK
		}
		nr := Nr(binary.BigEndian.Uint32(raw[0:4]))
		a0 := uint64(binary.BigEndian.Uint32(raw[8:12]))
		a1 := uint64(binary.BigEndian.Uint32(raw[12:16]))
		k.cov(NrMulticall, 2) // nested dispatch executed
		k.charge(multicallEntryCost)
		k.dispatch(caller, nr, []uint64{a0, a1})
		executed++
	}
	return RetCode(executed)
}

// maxConsoleWrite bounds one XM_write_console transfer.
const maxConsoleWrite = 1024

// hcWriteConsole implements XM_write_console(buffer, length): copies guest
// bytes to the UART console.
func (k *Kernel) hcWriteConsole(caller *Partition, ptr sparc.Addr, length uint32) RetCode {
	if length == 0 {
		return NoAction
	}
	if length > maxConsoleWrite {
		return InvalidParam
	}
	data, ok := k.copyFromGuest(caller, ptr, length)
	if !ok {
		return InvalidParam
	}
	k.machine.UART().Write(data)
	k.charge(Time(length) / 32)
	return RetCode(length)
}

// hcGetGidByName implements XM_get_gid_by_name(name, entity): resolves a
// partition or channel name to its global identifier.
func (k *Kernel) hcGetGidByName(caller *Partition, namePtr sparc.Addr, entity uint32) RetCode {
	var nameBuf [maxPortNameLen]byte
	name, ok := k.readGuestString(caller, namePtr, maxPortNameLen, nameBuf[:0])
	if !ok {
		return InvalidParam
	}
	switch entity {
	case EntityPartition:
		for _, p := range k.parts {
			if p.Name() == string(name) {
				k.cov(NrGetGidByName, 0)
				return RetCode(p.ID())
			}
		}
		return InvalidConfig
	case EntityChannel:
		for i, ch := range k.channels {
			if ch.cfg.Name == string(name) {
				k.cov(NrGetGidByName, 1)
				return RetCode(i)
			}
		}
		return InvalidConfig
	default:
		return InvalidParam
	}
}

// Cache selection bits for XM_flush_cache.
const (
	cacheICache uint32 = 1 << 0
	cacheDCache uint32 = 1 << 1
)

// hcFlushCache implements XM_flush_cache(cache).
func (k *Kernel) hcFlushCache(caller *Partition, cache uint32) RetCode {
	if cache == 0 {
		return NoAction
	}
	if cache&^(cacheICache|cacheDCache) != 0 {
		return InvalidParam
	}
	k.charge(5) // flush stall
	return OK
}

// paramsSize is the guest-visible size of the boot parameters record.
const paramsSize = 16

// hcGetParams implements XM_get_params(params*): writes the partition's
// boot parameters record.
func (k *Kernel) hcGetParams(caller *Partition, ptr sparc.Addr) RetCode {
	if !k.guestWritable(caller, ptr, paramsSize) {
		return InvalidParam
	}
	img := packWords(uint32(caller.ID()), caller.bootCount, boolWord(caller.System()), 0)
	if !k.copyToGuest(caller, ptr, img) {
		return InvalidParam
	}
	return OK
}
