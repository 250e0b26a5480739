// Package xal is the guest-side runtime partition code is written against
// — the analogue of the XtratuM Abstraction Layer (XAL), the single-
// threaded C runtime the paper lists among the guest environments XM
// supports.
//
// It wraps the raw hypercall ABI (xm.Env) in typed bindings, provides a
// bump allocator over the partition's data area, and offers a console
// printf. Everything stays inside the partition's own address space; a
// buggy or malicious program can still attempt arbitrary addresses through
// the raw Env, which is exactly what the fault-injection harness does.
package xal

import (
	"encoding/binary"
	"fmt"

	"xmrobust/internal/sparc"
	"xmrobust/internal/xm"
)

// Ctx wraps the kernel-provided environment with the XAL conveniences.
type Ctx struct {
	Env xm.Env
	// ri and hc4 cache the environment's optional allocation-free
	// capabilities (nil when the Env does not provide them).
	ri  xm.ReaderInto
	hc4 xm.Hypercaller4
	// heap is the bump-allocation cursor inside the data area.
	heapBase sparc.Addr
	heapEnd  sparc.Addr
	heapCur  sparc.Addr
	// scratch backs fixed-size kernel-structure reads (status records,
	// clock values) and hmRaw the health-monitor drain, so steady-state
	// polling does not allocate.
	scratch [32]byte
	hmRaw   []byte
}

// Init binds the context to a raw environment, as a program's Boot does
// for each incarnation; the context may live in the program's own state.
// dataArea is the partition's writable area (from the configuration, or
// discovered with XM_get_partition_mmap); the allocator serves from its
// upper half so the lower half stays free for static program data.
func (c *Ctx) Init(env xm.Env, dataArea sparc.Region) {
	half := dataArea.Size / 2
	*c = Ctx{
		Env:      env,
		heapBase: dataArea.Base + sparc.Addr(half),
		heapEnd:  dataArea.Base + sparc.Addr(dataArea.Size),
		heapCur:  dataArea.Base + sparc.Addr(half),
	}
	c.ri, _ = env.(xm.ReaderInto)
	c.hc4, _ = env.(xm.Hypercaller4)
}

// hc issues a hypercall through the fixed-arity fast path when the
// environment has one; unused arguments are zero, which the dispatcher
// treats exactly like missing ones.
func (c *Ctx) hc(nr xm.Nr, a0, a1, a2, a3 uint64) xm.RetCode {
	if c.hc4 != nil {
		return c.hc4.Hypercall4(nr, a0, a1, a2, a3)
	}
	return c.Env.Hypercall(nr, a0, a1, a2, a3)
}

// readInto copies a kernel-written structure back out of guest memory
// into a caller-owned buffer, without allocating when the environment
// supports it.
func (c *Ctx) readInto(addr sparc.Addr, buf []byte) bool {
	if c.ri != nil {
		return c.ri.ReadInto(addr, buf)
	}
	b, ok := c.Env.Read(addr, uint32(len(buf)))
	if !ok {
		return false
	}
	copy(buf, b)
	return true
}

// ResetHeap rewinds the bump allocator. Long-running programs call it at
// the top of each processing cycle; buffers from earlier cycles are
// forgotten wholesale, which is the usual static-allocation discipline of
// single-threaded flight software.
func (c *Ctx) ResetHeap() { c.heapCur = c.heapBase }

// Alloc reserves size bytes in the data area, 8-byte aligned. It returns
// 0 when the heap is exhausted (the XAL has no free()).
func (c *Ctx) Alloc(size uint32) sparc.Addr {
	cur := (uint32(c.heapCur) + 7) &^ 7
	if uint64(cur)+uint64(size) > uint64(c.heapEnd) {
		return 0
	}
	c.heapCur = sparc.Addr(cur + size)
	return sparc.Addr(cur)
}

// AllocBytes allocates and initialises a guest buffer, returning its
// address (0 on exhaustion or write failure).
func (c *Ctx) AllocBytes(data []byte) sparc.Addr {
	addr := c.Alloc(uint32(len(data)))
	if addr == 0 {
		return 0
	}
	if !c.Env.Write(addr, data) {
		return 0
	}
	return addr
}

// AllocString allocates a NUL-terminated guest string. Short strings
// (port and plan names) stage through the context's scratch buffer, so
// the common create-port boot sequence does not allocate host memory.
func (c *Ctx) AllocString(s string) sparc.Addr {
	var buf []byte
	if len(s)+1 <= len(c.scratch) {
		buf = c.scratch[:len(s)+1]
	} else {
		buf = make([]byte, len(s)+1)
	}
	copy(buf, s)
	buf[len(s)] = 0
	return c.AllocBytes(buf)
}

// --- Time management -------------------------------------------------------

// GetTime reads one of the two kernel clocks.
func (c *Ctx) GetTime(clock uint32) (xm.Time, xm.RetCode) {
	ptr := c.Alloc(8)
	if ptr == 0 {
		return 0, xm.InvalidParam
	}
	rc := c.hc(xm.NrGetTime, uint64(clock), uint64(ptr), 0, 0)
	if rc != xm.OK {
		return 0, rc
	}
	if !c.readInto(ptr, c.scratch[:8]) {
		return 0, xm.InvalidParam
	}
	return xm.Time(binary.BigEndian.Uint64(c.scratch[:8])), xm.OK
}

// SetTimer arms the partition's timer on the given clock.
func (c *Ctx) SetTimer(clock uint32, absTime, interval xm.Time) xm.RetCode {
	return c.hc(xm.NrSetTimer, uint64(clock), uint64(absTime), uint64(interval), 0)
}

// --- Console ----------------------------------------------------------------

// Print writes a string to the hypervisor console.
func (c *Ctx) Print(s string) xm.RetCode {
	if s == "" {
		return xm.NoAction
	}
	buf := c.AllocBytes([]byte(s))
	if buf == 0 {
		return xm.InvalidParam
	}
	return c.hc(xm.NrWriteConsole, uint64(buf), uint64(len(s)), 0, 0)
}

// PrintBytes writes a byte slice to the hypervisor console without
// copying through a string — the allocation-free sibling of Print for
// programs that format into a reused buffer.
func (c *Ctx) PrintBytes(b []byte) xm.RetCode {
	if len(b) == 0 {
		return xm.NoAction
	}
	buf := c.AllocBytes(b)
	if buf == 0 {
		return xm.InvalidParam
	}
	return c.hc(xm.NrWriteConsole, uint64(buf), uint64(len(b)), 0, 0)
}

// Printf formats and writes to the hypervisor console.
func (c *Ctx) Printf(format string, args ...any) xm.RetCode {
	return c.Print(fmt.Sprintf(format, args...))
}

// --- IPC ---------------------------------------------------------------------

// Port is an IPC port descriptor. A create that fails returns the zero
// Port, which is not Open.
type Port struct {
	ctx *Ctx
	ID  int32
}

// Open reports whether the port was created.
func (p *Port) Open() bool { return p.ctx != nil }

// CreateSamplingPort attaches to a sampling channel.
func (c *Ctx) CreateSamplingPort(name string, maxMsgSize, direction uint32) (Port, xm.RetCode) {
	namePtr := c.AllocString(name)
	if namePtr == 0 {
		return Port{}, xm.InvalidParam
	}
	rc := c.hc(xm.NrCreateSamplingPort, uint64(namePtr), uint64(maxMsgSize), uint64(direction), 0)
	if rc < 0 {
		return Port{}, rc
	}
	return Port{ctx: c, ID: int32(rc)}, xm.OK
}

// CreateQueuingPort attaches to a queuing channel.
func (c *Ctx) CreateQueuingPort(name string, maxNoMsgs, maxMsgSize, direction uint32) (Port, xm.RetCode) {
	namePtr := c.AllocString(name)
	if namePtr == 0 {
		return Port{}, xm.InvalidParam
	}
	rc := c.hc(xm.NrCreateQueuingPort,
		uint64(namePtr), uint64(maxNoMsgs), uint64(maxMsgSize), uint64(direction))
	if rc < 0 {
		return Port{}, rc
	}
	return Port{ctx: c, ID: int32(rc)}, xm.OK
}

// WriteSampling publishes a message on a sampling port.
func (p *Port) WriteSampling(msg []byte) xm.RetCode {
	buf := p.ctx.AllocBytes(msg)
	if buf == 0 {
		return xm.InvalidParam
	}
	return p.ctx.hc(xm.NrWriteSamplingMsg, uint64(uint32(p.ID)), uint64(buf), uint64(len(msg)), 0)
}

// ReadSampling reads the freshest message (nil, XM_NO_ACTION when none).
func (p *Port) ReadSampling(maxSize uint32) ([]byte, xm.RetCode) {
	b := make([]byte, maxSize)
	n, rc := p.ReadSamplingInto(b)
	if rc != xm.OK {
		return nil, rc
	}
	return b[:n], xm.OK
}

// ReadSamplingInto reads the freshest message into a caller-owned
// buffer, returning the number of bytes copied — the allocation-free
// sibling of ReadSampling. len(buf) is the requested maximum size.
func (p *Port) ReadSamplingInto(buf []byte) (int, xm.RetCode) {
	addr := p.ctx.Alloc(uint32(len(buf)))
	if addr == 0 {
		return 0, xm.InvalidParam
	}
	rc := p.ctx.hc(xm.NrReadSamplingMsg, uint64(uint32(p.ID)), uint64(addr), uint64(len(buf)), 0)
	if rc < 0 {
		return 0, rc
	}
	if !p.ctx.readInto(addr, buf[:uint32(rc)]) {
		return 0, xm.InvalidParam
	}
	return int(rc), xm.OK
}

// Send enqueues a message on a queuing port.
func (p *Port) Send(msg []byte) xm.RetCode {
	buf := p.ctx.AllocBytes(msg)
	if buf == 0 {
		return xm.InvalidParam
	}
	return p.ctx.hc(xm.NrSendQueuingMsg, uint64(uint32(p.ID)), uint64(buf), uint64(len(msg)), 0)
}

// Receive dequeues the oldest message (nil, XM_NO_ACTION when empty).
func (p *Port) Receive(maxSize uint32) ([]byte, xm.RetCode) {
	b := make([]byte, maxSize)
	n, rc := p.ReceiveInto(b)
	if rc != xm.OK {
		return nil, rc
	}
	return b[:n], xm.OK
}

// ReceiveInto dequeues the oldest message into a caller-owned buffer,
// returning the number of bytes copied — the allocation-free sibling of
// Receive. len(buf) is the requested maximum size.
func (p *Port) ReceiveInto(buf []byte) (int, xm.RetCode) {
	addr := p.ctx.Alloc(uint32(len(buf)))
	if addr == 0 {
		return 0, xm.InvalidParam
	}
	rc := p.ctx.hc(xm.NrReceiveQueuingMsg, uint64(uint32(p.ID)), uint64(addr), uint64(len(buf)), 0)
	if rc < 0 {
		return 0, rc
	}
	if !p.ctx.readInto(addr, buf[:uint32(rc)]) {
		return 0, xm.InvalidParam
	}
	return int(rc), xm.OK
}

// Close releases the port descriptor.
func (p *Port) Close() xm.RetCode {
	return p.ctx.hc(xm.NrClosePort, uint64(uint32(p.ID)), 0, 0, 0)
}

// --- Health monitoring & partition management (system partitions) -----------

// HMEntry is one decoded health-monitor record as read by XM_hm_read.
type HMEntry struct {
	Seq       uint32
	Event     xm.HMEvent
	Partition int32 // -1 for kernel scope
	Action    xm.HMAction
	Time      xm.Time
}

// hmEntrySize mirrors the kernel's guest serialisation (24 bytes).
const hmEntrySize = 24

// ReadHM drains up to max health-monitor entries.
func (c *Ctx) ReadHM(max uint32) ([]HMEntry, xm.RetCode) {
	if max == 0 {
		return nil, xm.NoAction
	}
	buf := c.Alloc(max * hmEntrySize)
	if buf == 0 {
		return nil, xm.InvalidParam
	}
	rc := c.hc(xm.NrHmRead, uint64(buf), uint64(max), 0, 0)
	if rc < 0 {
		return nil, rc
	}
	n := uint32(rc)
	if n == 0 {
		return nil, xm.OK
	}
	if uint32(cap(c.hmRaw)) < n*hmEntrySize {
		c.hmRaw = make([]byte, n*hmEntrySize)
	}
	raw := c.hmRaw[:n*hmEntrySize]
	if !c.readInto(buf, raw) {
		return nil, xm.InvalidParam
	}
	out := make([]HMEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		rec := raw[i*hmEntrySize:]
		out = append(out, HMEntry{
			Seq:       binary.BigEndian.Uint32(rec[0:4]),
			Event:     xm.HMEvent(binary.BigEndian.Uint32(rec[4:8])),
			Partition: int32(binary.BigEndian.Uint32(rec[8:12])),
			Action:    xm.HMAction(binary.BigEndian.Uint32(rec[12:16])),
			Time:      xm.Time(binary.BigEndian.Uint64(rec[16:24])),
		})
	}
	return out, xm.OK
}

// PartitionState is the decoded result of XM_get_partition_status.
type PartitionState struct {
	ID        uint32
	State     xm.PState
	BootCount uint32
	Pending   uint32
	ExecClock xm.Time
	System    bool
}

// GetPartitionStatus queries another partition's state (system partitions
// only).
func (c *Ctx) GetPartitionStatus(id int32) (PartitionState, xm.RetCode) {
	buf := c.Alloc(32)
	if buf == 0 {
		return PartitionState{}, xm.InvalidParam
	}
	rc := c.hc(xm.NrGetPartitionStatus, uint64(uint32(id)), uint64(buf), 0, 0)
	if rc != xm.OK {
		return PartitionState{}, rc
	}
	if !c.readInto(buf, c.scratch[:32]) {
		return PartitionState{}, xm.InvalidParam
	}
	b := c.scratch[:32]
	return PartitionState{
		ID:        binary.BigEndian.Uint32(b[0:4]),
		State:     xm.PState(binary.BigEndian.Uint32(b[4:8])),
		BootCount: binary.BigEndian.Uint32(b[8:12]),
		Pending:   binary.BigEndian.Uint32(b[12:16]),
		ExecClock: xm.Time(binary.BigEndian.Uint64(b[16:24])),
		System:    binary.BigEndian.Uint32(b[24:28]) == 1,
	}, xm.OK
}

// ResetPartition restarts another partition (system partitions only).
func (c *Ctx) ResetPartition(id int32, mode uint32) xm.RetCode {
	return c.hc(xm.NrResetPartition, uint64(uint32(id)), uint64(mode), 0, 0)
}

// TraceEvent stores a 16-byte trace record in the caller's stream.
func (c *Ctx) TraceEvent(bitmask uint32, payload [16]byte) xm.RetCode {
	buf := c.AllocBytes(payload[:])
	if buf == 0 {
		return xm.InvalidParam
	}
	return c.hc(xm.NrTraceEvent, uint64(bitmask), uint64(buf), 0, 0)
}
