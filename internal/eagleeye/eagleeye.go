// Package eagleeye provides the testbed of the paper's case study: a
// synthetic stand-in for ESA's EagleEye TSP reference spacecraft — "an ESA
// reference spacecraft mission representative of a typical earth
// observation satellite" — hosted on the XtratuM-like kernel of package xm.
//
// The real EagleEye OBSW is ESA-proprietary; this package reproduces its
// *structure* as the paper describes it: a LEON3 central node running XM
// with the on-board software split into five partitions over a 250 ms
// cyclic major frame, the FDIR partition being the only system partition
// (and therefore the natural host for the fault-injection test partition).
//
// The synthetic on-board software exercises the same kernel services a
// real OBSW would: the GNC partition publishes attitude state on a
// sampling channel, PLATFORM consumes it and emits housekeeping telemetry,
// PAYLOAD produces science frames, TMTC drains telemetry into a queuing
// downlink, and FDIR polls partition health and the HM log.
package eagleeye

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"xmrobust/internal/sparc"
	"xmrobust/internal/xal"
	"xmrobust/internal/xm"
)

// Partition ids of the EagleEye TSP configuration.
const (
	Platform = 0
	Payload  = 1
	GNC      = 2
	TMTC     = 3
	FDIR     = 4 // the only system partition

	NumPartitions = 5
)

// MajorFrame is the cyclic major frame of the case study: 250 ms.
const MajorFrame xm.Time = 250000

// Channel names of the synthetic OBSW.
const (
	ChanAttitude = "gnc-attitude"  // GNC -> PLATFORM, sampling
	ChanHKTM     = "platform-hktm" // PLATFORM -> TMTC, sampling
	ChanScience  = "payload-sci"   // PAYLOAD -> TMTC, sampling
	ChanDownlink = "tmtc-downlink" // TMTC -> FDIR, queuing (frame accounting)
)

// areaBase returns the RAM base of partition id's data area. Each
// partition owns 64 KiB, spaced 1 MiB apart above the kernel image.
func areaBase(id int) sparc.Addr {
	return sparc.DefaultRAMBase + sparc.Addr(0x100000*(id+1))
}

// AreaSize is the size of each partition's data area.
const AreaSize uint32 = 0x10000

// DataArea returns the RAM base and size of partition id's data area —
// the same layout a booted kernel reports through PartitionDataArea,
// computable without booting one (the phantom model target resolves
// symbolic dictionary values against it).
func DataArea(id int) (sparc.Addr, uint32) { return areaBase(id), AreaSize }

// Config returns the EagleEye TSP system definition: five partitions over
// a 250 ms major frame, FDIR as the sole system partition, and the OBSW
// channel set.
func Config() xm.Config {
	names := [NumPartitions]string{"PLATFORM", "PAYLOAD", "GNC", "TMTC", "FDIR"}
	cfg := xm.Config{Name: "eagleeye-tsp"}
	for id := 0; id < NumPartitions; id++ {
		pc := xm.PartitionConfig{
			ID:   id,
			Name: names[id],
			MemoryAreas: []sparc.Region{{
				Name: "data", Base: areaBase(id), Size: AreaSize, Perm: sparc.PermRW,
			}},
			HwIrqLines: []int{3 + id},
		}
		if id == FDIR {
			pc.System = true
			pc.IOPorts = true
		}
		cfg.Partitions = append(cfg.Partitions, pc)
	}
	cfg.Plans = []xm.PlanConfig{
		{
			ID: 0, MajorFrame: MajorFrame,
			Slots: []xm.SlotConfig{
				{PartitionID: Platform, Start: 0, Duration: 60000},
				{PartitionID: Payload, Start: 60000, Duration: 40000},
				{PartitionID: GNC, Start: 100000, Duration: 50000},
				{PartitionID: TMTC, Start: 150000, Duration: 40000},
				{PartitionID: FDIR, Start: 190000, Duration: 50000},
			},
		},
		{
			// Survival plan: only PLATFORM and FDIR execute.
			ID: 1, MajorFrame: MajorFrame,
			Slots: []xm.SlotConfig{
				{PartitionID: Platform, Start: 0, Duration: 100000},
				{PartitionID: FDIR, Start: 150000, Duration: 80000},
			},
		},
	}
	cfg.Channels = []xm.ChannelConfig{
		{Name: ChanAttitude, Type: xm.SamplingChannel, MaxMsgSize: 32, Source: GNC, Destination: Platform},
		{Name: ChanHKTM, Type: xm.SamplingChannel, MaxMsgSize: 64, Source: Platform, Destination: TMTC},
		{Name: ChanScience, Type: xm.SamplingChannel, MaxMsgSize: 64, Source: Payload, Destination: TMTC},
		{Name: ChanDownlink, Type: xm.QueuingChannel, MaxMsgSize: 16, MaxNoMsgs: 16, Source: TMTC, Destination: FDIR},
	}
	return cfg
}

// NewSystem boots a kernel with the EagleEye configuration and the
// synthetic OBSW attached to all five partitions.
func NewSystem(opts ...xm.Option) (*xm.Kernel, error) {
	k, err := xm.New(Config(), opts...)
	if err != nil {
		return nil, err
	}
	if err := AttachOBSW(k); err != nil {
		return nil, err
	}
	return k, nil
}

// obsw is the synthetic on-board software's state: the five programs
// with their runtime contexts and ports.
type obsw struct {
	platform platformProg
	payload  payloadProg
	gnc      gncProg
	tmtc     tmtcProg
	fdir     fdirProg
}

// AttachOBSW hosts the synthetic on-board software in every partition of
// an EagleEye-configured kernel. The five program states live in one
// block that stays with the kernel (xm.Kernel.SetGuest) and is zeroed
// on each call, so each incarnation still starts from zero values,
// exactly like five fresh literals, and reattaching the OBSW to a
// recycled kernel allocates nothing.
func AttachOBSW(k *xm.Kernel) error {
	ps, _ := k.Guest().(*obsw)
	if ps == nil {
		ps = new(obsw)
		k.SetGuest(ps)
	} else {
		*ps = obsw{}
	}
	for _, a := range [...]struct {
		id   int
		prog xm.Program
	}{
		{Platform, &ps.platform},
		{Payload, &ps.payload},
		{GNC, &ps.gnc},
		{TMTC, &ps.tmtc},
		{FDIR, &ps.fdir},
	} {
		if err := k.AttachProgram(a.id, a.prog); err != nil {
			return err
		}
	}
	return nil
}

// dataRegion builds the region descriptor for partition id (for xal.Ctx.Init).
func dataRegion(id int) sparc.Region {
	return sparc.Region{Name: "data", Base: areaBase(id), Size: AreaSize, Perm: sparc.PermRW}
}

// --- GNC: publishes attitude quaternions -----------------------------------

type gncProg struct {
	ctx  xal.Ctx
	port xal.Port
	seq  uint32
	// msg is the reused attitude message image. Bytes the step below
	// does not write stay zero, exactly as in a freshly made buffer.
	msg [32]byte
}

func (g *gncProg) Boot(env xm.Env) {
	g.ctx.Init(env, dataRegion(GNC))
	g.port, _ = g.ctx.CreateSamplingPort(ChanAttitude, 32, xm.SourcePort)
	g.seq = 0
}

func (g *gncProg) Step(env xm.Env) bool {
	g.ctx.ResetHeap()
	env.Compute(2000) // attitude determination & control iteration
	if !g.port.Open() {
		return false
	}
	g.seq++
	msg := g.msg[:]
	binary.BigEndian.PutUint32(msg[0:4], g.seq)
	binary.BigEndian.PutUint64(msg[8:16], uint64(env.Now()))
	// A synthetic quaternion derived from the sequence number.
	binary.BigEndian.PutUint32(msg[16:20], g.seq%3600)
	g.port.WriteSampling(msg)
	return false // one control iteration per slot
}

// --- PLATFORM: consumes attitude, emits housekeeping telemetry -------------

type platformProg struct {
	ctx      xal.Ctx
	attitude xal.Port
	hktm     xal.Port
	cycles   uint32
	lastAtt  uint32
	rbuf     [32]byte
	tm       [64]byte
}

func (p *platformProg) Boot(env xm.Env) {
	p.ctx.Init(env, dataRegion(Platform))
	p.attitude, _ = p.ctx.CreateSamplingPort(ChanAttitude, 32, xm.DestinationPort)
	p.hktm, _ = p.ctx.CreateSamplingPort(ChanHKTM, 64, xm.SourcePort)
}

func (p *platformProg) Step(env xm.Env) bool {
	p.ctx.ResetHeap()
	env.Compute(3000) // thermal, power and mode management
	p.cycles++
	if p.attitude.Open() {
		if n, rc := p.attitude.ReadSamplingInto(p.rbuf[:]); rc == xm.OK && n >= 4 {
			p.lastAtt = binary.BigEndian.Uint32(p.rbuf[0:4])
		}
	}
	if p.hktm.Open() {
		tm := p.tm[:]
		binary.BigEndian.PutUint32(tm[0:4], p.cycles)
		binary.BigEndian.PutUint32(tm[4:8], p.lastAtt)
		binary.BigEndian.PutUint64(tm[8:16], uint64(env.Now()))
		p.hktm.WriteSampling(tm)
	}
	return false
}

// --- PAYLOAD: produces science frames ---------------------------------------

type payloadProg struct {
	ctx    xal.Ctx
	sci    xal.Port
	frames uint32
	frame  [64]byte
}

func (p *payloadProg) Boot(env xm.Env) {
	p.ctx.Init(env, dataRegion(Payload))
	p.sci, _ = p.ctx.CreateSamplingPort(ChanScience, 64, xm.SourcePort)
}

func (p *payloadProg) Step(env xm.Env) bool {
	p.ctx.ResetHeap()
	env.Compute(8000) // instrument readout and compression
	if p.sci.Open() {
		p.frames++
		frame := p.frame[:]
		binary.BigEndian.PutUint32(frame[0:4], p.frames)
		for i := 8; i < 64; i++ {
			frame[i] = byte(p.frames + uint32(i)) // deterministic pseudo-payload
		}
		p.sci.WriteSampling(frame)
	}
	return false
}

// --- TMTC: drains telemetry into the downlink queue -------------------------

type tmtcProg struct {
	ctx      xal.Ctx
	hktm     xal.Port
	sci      xal.Port
	downlink xal.Port
	sent     uint32
	overflow uint32
	rbuf     [64]byte
	frame    [16]byte
}

func (t *tmtcProg) Boot(env xm.Env) {
	t.ctx.Init(env, dataRegion(TMTC))
	t.hktm, _ = t.ctx.CreateSamplingPort(ChanHKTM, 64, xm.DestinationPort)
	t.sci, _ = t.ctx.CreateSamplingPort(ChanScience, 64, xm.DestinationPort)
	t.downlink, _ = t.ctx.CreateQueuingPort(ChanDownlink, 16, 16, xm.SourcePort)
}

func (t *tmtcProg) Step(env xm.Env) bool {
	t.ctx.ResetHeap()
	env.Compute(2500)
	t.drain(&t.hktm)
	t.drain(&t.sci)
	return false
}

// drain forwards one telemetry source into the downlink queue.
func (t *tmtcProg) drain(src *xal.Port) {
	if !src.Open() || !t.downlink.Open() {
		return
	}
	n, rc := src.ReadSamplingInto(t.rbuf[:])
	if rc != xm.OK || n < 4 {
		return
	}
	// A fresh read buffer is zero past the message; the reused one must
	// be scrubbed there so short messages frame identically.
	for i := n; i < len(t.frame); i++ {
		t.rbuf[i] = 0
	}
	copy(t.frame[:], t.rbuf[:16])
	switch t.downlink.Send(t.frame[:]) {
	case xm.OK:
		t.sent++
	case xm.NotAvailable:
		t.overflow++ // downlink queue full; frame dropped
	}
}

// --- FDIR: fault detection, isolation and recovery (system partition) -------

// FDIRReport summarises what the FDIR partition observed; the host test
// harness reads it back through Report().
type FDIRReport struct {
	Cycles        uint32
	HMEntriesSeen int
	KernelEvents  int
	PartitionsUp  int
	Recovered     int // partitions FDIR warm-reset after finding them halted
	FramesDrained int
}

type fdirProg struct {
	ctx      xal.Ctx
	downlink xal.Port
	report   FDIRReport
	dbuf     [16]byte
	line     []byte
}

func (f *fdirProg) Boot(env xm.Env) {
	f.ctx.Init(env, dataRegion(FDIR))
	f.downlink, _ = f.ctx.CreateQueuingPort(ChanDownlink, 16, 16, xm.DestinationPort)
}

func (f *fdirProg) Step(env xm.Env) bool {
	f.ctx.ResetHeap()
	env.Compute(1500)
	f.report.Cycles++
	// Drain the HM log.
	if entries, rc := f.ctx.ReadHM(8); rc == xm.OK {
		f.report.HMEntriesSeen += len(entries)
		for _, e := range entries {
			if e.Partition < 0 {
				f.report.KernelEvents++
			}
		}
	}
	// Poll partition health; warm-reset halted partitions (recovery).
	up := 0
	for id := int32(0); id < NumPartitions; id++ {
		st, rc := f.ctx.GetPartitionStatus(id)
		if rc != xm.OK {
			continue
		}
		switch st.State {
		case xm.PStateHalted:
			if f.ctx.ResetPartition(id, xm.WarmReset) == xm.OK {
				f.report.Recovered++
			}
		case xm.PStateNormal, xm.PStateBoot:
			up++
		}
	}
	f.report.PartitionsUp = up
	// Account downlink frames.
	if f.downlink.Open() {
		for {
			_, rc := f.downlink.ReceiveInto(f.dbuf[:])
			if rc < 0 || rc == xm.NoAction {
				break
			}
			f.report.FramesDrained++
		}
	}
	// Hand-rolled Printf("[FDIR] cycle=%d up=%d hm=%d\n", ...): the
	// cycle report runs every FDIR slot, so it formats into a reused
	// line buffer — the bytes on the console are identical.
	f.line = append(f.line[:0], "[FDIR] cycle="...)
	f.line = strconv.AppendUint(f.line, uint64(f.report.Cycles), 10)
	f.line = append(f.line, " up="...)
	f.line = strconv.AppendInt(f.line, int64(f.report.PartitionsUp), 10)
	f.line = append(f.line, " hm="...)
	f.line = strconv.AppendInt(f.line, int64(f.report.HMEntriesSeen), 10)
	f.line = append(f.line, '\n')
	f.ctx.PrintBytes(f.line)
	return false
}

// Report extracts the FDIR partition's accumulated observations from a
// kernel built with NewSystem/AttachOBSW.
func Report(k *xm.Kernel) (FDIRReport, error) {
	f, ok := k.ProgramOf(FDIR).(*fdirProg)
	if !ok {
		return FDIRReport{}, fmt.Errorf("eagleeye: FDIR does not host the OBSW FDIR program")
	}
	return f.report, nil
}

// TMTCStats reports the telemetry partition's frame counters.
func TMTCStats(k *xm.Kernel) (sent, overflow uint32, err error) {
	t, ok := k.ProgramOf(TMTC).(*tmtcProg)
	if !ok {
		return 0, 0, fmt.Errorf("eagleeye: TMTC does not host the OBSW TMTC program")
	}
	return t.sent, t.overflow, nil
}
