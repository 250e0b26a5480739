package xm

import "xmrobust/internal/sparc"

// --- Memory Management ----------------------------------------------------

// memoryCopyChunk is the granularity the copy loop charges time at.
const memoryCopyChunk = 256

// hcMemoryCopy implements XM_memory_copy(destAddr, srcAddr, size): a
// kernel-mediated copy between two ranges the *caller* is allowed to touch
// (its own areas, including read-only sources and shared regions).
//
// Every parameter is validated before a byte moves — the paper's campaign
// threw 991 datasets at this service and raised no issue, which is the
// behaviour reproduced here.
func (k *Kernel) hcMemoryCopy(caller *Partition, dst, src sparc.Addr, size uint32) RetCode {
	if size == 0 {
		return NoAction
	}
	if !caller.space.Allows(src, size, sparc.PermRead) {
		k.cov(NrMemoryCopy, 0) // source range rejected
		return InvalidParam
	}
	if !caller.space.Allows(dst, size, sparc.PermWrite) {
		k.cov(NrMemoryCopy, 1) // destination range rejected
		return InvalidParam
	}
	// Overlapping ranges are legal (memmove semantics): Machine.Read
	// snapshots the source before the write.
	data, tr := k.machine.Read(src, size)
	if tr != nil {
		return InvalidParam
	}
	if tr := k.machine.Write(dst, data); tr != nil {
		return InvalidParam
	}
	k.cov(NrMemoryCopy, 2) // bytes actually moved
	k.charge(Time(size/memoryCopyChunk) + 1)
	return OK
}

// hcUpdatePage32 implements XM_update_page32(pageAddr, value): a
// system-partition service that patches one word of a page the caller maps
// (real XtratuM uses it for para-virtualised page-table updates).
func (k *Kernel) hcUpdatePage32(caller *Partition, addr sparc.Addr, value uint32) RetCode {
	if uint32(addr)%4 != 0 {
		k.cov(NrUpdatePage32, 0) // misaligned page address
		return InvalidParam
	}
	if !caller.space.Allows(addr, 4, sparc.PermWrite) {
		k.cov(NrUpdatePage32, 1) // page outside the caller's areas
		return InvalidParam
	}
	if tr := k.machine.Write32(addr, value); tr != nil {
		return InvalidParam
	}
	return OK
}
