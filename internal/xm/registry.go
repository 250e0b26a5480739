package xm

import (
	"fmt"
	"sort"
)

// Nr is a hypercall number. Numbers are a stable ABI: they are what a
// multicall batch buffer encodes.
type Nr uint32

// Category groups hypercalls as in the paper's Table III.
type Category string

// The 11 hypercall categories of Table III.
const (
	CatSystem    Category = "System Management"
	CatPartition Category = "Partition Management"
	CatTime      Category = "Time Management"
	CatPlan      Category = "Plan Management"
	CatIPC       Category = "Inter-Partition Communication"
	CatMemory    Category = "Memory Management"
	CatHM        Category = "Health Monitor Management"
	CatTrace     Category = "Trace Management"
	CatInterrupt Category = "Interrupt Management"
	CatMisc      Category = "Miscellaneous"
	CatSparc     Category = "Sparc V8 Specific"
)

// Categories returns the categories in Table III row order.
func Categories() []Category {
	return []Category{
		CatSystem, CatPartition, CatTime, CatPlan, CatIPC, CatMemory,
		CatHM, CatTrace, CatInterrupt, CatMisc, CatSparc,
	}
}

// Hypercall numbers. The grouping by tens mirrors the category layout.
const (
	// System Management
	NrHaltSystem      Nr = 1
	NrResetSystem     Nr = 2
	NrGetSystemStatus Nr = 3
	// Partition Management
	NrHaltPartition      Nr = 4
	NrResetPartition     Nr = 5
	NrSuspendPartition   Nr = 6
	NrResumePartition    Nr = 7
	NrShutdownPartition  Nr = 8
	NrGetPartitionStatus Nr = 9
	NrIdleSelf           Nr = 10
	NrSuspendSelf        Nr = 11
	NrGetPartitionMmap   Nr = 12
	NrSetPartitionOpMode Nr = 13
	// Time Management
	NrGetTime  Nr = 14
	NrSetTimer Nr = 15
	// Plan Management
	NrSwitchSchedPlan Nr = 16
	NrGetPlanStatus   Nr = 17
	// Inter-Partition Communication
	NrCreateSamplingPort Nr = 18
	NrWriteSamplingMsg   Nr = 19
	NrReadSamplingMsg    Nr = 20
	NrCreateQueuingPort  Nr = 21
	NrSendQueuingMsg     Nr = 22
	NrReceiveQueuingMsg  Nr = 23
	NrGetPortStatus      Nr = 24
	NrClosePort          Nr = 25
	NrFlushPort          Nr = 26
	NrGetPortInfo        Nr = 27
	// Memory Management
	NrMemoryCopy   Nr = 28
	NrUpdatePage32 Nr = 29
	// Health Monitor Management
	NrHmRead   Nr = 30
	NrHmSeek   Nr = 31
	NrHmStatus Nr = 32
	NrHmOpen   Nr = 33
	NrHmReset  Nr = 34
	// Trace Management
	NrTraceEvent  Nr = 35
	NrTraceRead   Nr = 36
	NrTraceSeek   Nr = 37
	NrTraceStatus Nr = 38
	NrTraceOpen   Nr = 39
	// Interrupt Management
	NrEnableIrqs   Nr = 40
	NrSetIrqMask   Nr = 41
	NrClearIrqMask Nr = 42
	NrSetIrqPend   Nr = 43
	NrRouteIrq     Nr = 44
	// Miscellaneous
	NrMulticall    Nr = 45
	NrWriteConsole Nr = 46
	NrGetGidByName Nr = 47
	NrFlushCache   Nr = 48
	NrGetParams    Nr = 49
	// Sparc V8 Specific
	NrSparcAtomicAdd   Nr = 50
	NrSparcAtomicAnd   Nr = 51
	NrSparcAtomicOr    Nr = 52
	NrSparcInPort      Nr = 53
	NrSparcOutPort     Nr = 54
	NrSparcGetPsr      Nr = 55
	NrSparcSetPsr      Nr = 56
	NrSparcWriteTbr    Nr = 57
	NrSparcFlushRegWin Nr = 58
	NrSparcEnableTraps Nr = 59
	NrSparcDisableTrap Nr = 60
	NrSparcIFlush      Nr = 61

	// NumHypercalls is the total of Table III.
	NumHypercalls = 61
)

// Param describes one formal parameter of a hypercall: its name and the XM
// data type it carries across the ABI (Table I names, or "void*").
type Param struct {
	Name    string
	Type    string
	Pointer bool
}

// Spec is the interface metadata of one hypercall — everything the API
// Header XML of paper Fig. 2 captures, plus the category and privilege
// level needed by the campaign and by the kernel dispatcher.
type Spec struct {
	Nr         Nr
	Name       string
	Category   Category
	SystemOnly bool // only succeeds when invoked from a system partition
	Params     []Param
	ReturnType string
}

// NumParams returns the number of formal parameters.
func (s Spec) NumParams() int { return len(s.Params) }

func p(name, typ string) Param { return Param{Name: name, Type: typ} }
func pp(name string) Param     { return Param{Name: name, Type: "void*", Pointer: true} }
func ret(s Spec) Spec          { s.ReturnType = "xm_s32_t"; return s }
func sys(s Spec) Spec          { s.SystemOnly = true; return s }
func spec(nr Nr, name string, cat Category, params ...Param) Spec {
	return ret(Spec{Nr: nr, Name: name, Category: cat, Params: params})
}

// registry is the authoritative hypercall table. It drives the kernel
// dispatcher, the API-Header XML emitter, and the Table III reproduction.
var registry = []Spec{
	// System Management
	sys(spec(NrHaltSystem, "XM_halt_system", CatSystem)),
	sys(spec(NrResetSystem, "XM_reset_system", CatSystem, p("mode", "xm_u32_t"))),
	sys(spec(NrGetSystemStatus, "XM_get_system_status", CatSystem, pp("status"))),
	// Partition Management
	sys(spec(NrHaltPartition, "XM_halt_partition", CatPartition, p("partitionId", "xm_s32_t"))),
	sys(spec(NrResetPartition, "XM_reset_partition", CatPartition,
		p("partitionId", "xm_s32_t"), p("resetMode", "xm_u32_t"), p("status", "xm_u32_t"))),
	sys(spec(NrSuspendPartition, "XM_suspend_partition", CatPartition, p("partitionId", "xm_s32_t"))),
	sys(spec(NrResumePartition, "XM_resume_partition", CatPartition, p("partitionId", "xm_s32_t"))),
	sys(spec(NrShutdownPartition, "XM_shutdown_partition", CatPartition, p("partitionId", "xm_s32_t"))),
	sys(spec(NrGetPartitionStatus, "XM_get_partition_status", CatPartition,
		p("partitionId", "xm_s32_t"), pp("status"))),
	spec(NrIdleSelf, "XM_idle_self", CatPartition),
	spec(NrSuspendSelf, "XM_suspend_self", CatPartition),
	spec(NrGetPartitionMmap, "XM_get_partition_mmap", CatPartition, pp("mmap")),
	spec(NrSetPartitionOpMode, "XM_set_partition_opmode", CatPartition, p("opMode", "xm_u32_t")),
	// Time Management
	spec(NrGetTime, "XM_get_time", CatTime, p("clockId", "xm_u32_t"), pp("time")),
	spec(NrSetTimer, "XM_set_timer", CatTime,
		p("clockId", "xm_u32_t"), p("absTime", "xmTime_t"), p("interval", "xmTime_t")),
	// Plan Management
	sys(spec(NrSwitchSchedPlan, "XM_switch_sched_plan", CatPlan,
		p("planId", "xm_u32_t"), pp("prevPlanId"))),
	spec(NrGetPlanStatus, "XM_get_plan_status", CatPlan, pp("status")),
	// Inter-Partition Communication
	spec(NrCreateSamplingPort, "XM_create_sampling_port", CatIPC,
		pp("portName"), p("maxMsgSize", "xm_u32_t"), p("direction", "xm_u32_t")),
	spec(NrWriteSamplingMsg, "XM_write_sampling_message", CatIPC,
		p("portId", "xm_s32_t"), pp("msgPtr"), p("msgSize", "xm_u32_t")),
	spec(NrReadSamplingMsg, "XM_read_sampling_message", CatIPC,
		p("portId", "xm_s32_t"), pp("msgPtr"), p("msgSize", "xm_u32_t")),
	spec(NrCreateQueuingPort, "XM_create_queuing_port", CatIPC,
		pp("portName"), p("maxNoMsgs", "xm_u32_t"), p("maxMsgSize", "xm_u32_t"), p("direction", "xm_u32_t")),
	spec(NrSendQueuingMsg, "XM_send_queuing_message", CatIPC,
		p("portId", "xm_s32_t"), pp("msgPtr"), p("msgSize", "xm_u32_t")),
	spec(NrReceiveQueuingMsg, "XM_receive_queuing_message", CatIPC,
		p("portId", "xm_s32_t"), pp("msgPtr"), p("msgSize", "xm_u32_t")),
	spec(NrGetPortStatus, "XM_get_port_status", CatIPC, p("portId", "xm_s32_t"), pp("status")),
	spec(NrClosePort, "XM_close_port", CatIPC, p("portId", "xm_s32_t")),
	spec(NrFlushPort, "XM_flush_port", CatIPC, p("portId", "xm_s32_t")),
	spec(NrGetPortInfo, "XM_get_port_info", CatIPC, pp("portName"), pp("info")),
	// Memory Management
	spec(NrMemoryCopy, "XM_memory_copy", CatMemory,
		p("destAddr", "xmAddress_t"), p("srcAddr", "xmAddress_t"), p("size", "xmSize_t")),
	sys(spec(NrUpdatePage32, "XM_update_page32", CatMemory,
		p("pageAddr", "xmAddress_t"), p("value", "xm_u32_t"))),
	// Health Monitor Management
	sys(spec(NrHmRead, "XM_hm_read", CatHM, pp("hmLogPtr"), p("count", "xm_u32_t"))),
	sys(spec(NrHmSeek, "XM_hm_seek", CatHM, p("offset", "xm_s32_t"), p("whence", "xm_u32_t"))),
	sys(spec(NrHmStatus, "XM_hm_status", CatHM, pp("status"))),
	sys(spec(NrHmOpen, "XM_hm_open", CatHM)),
	sys(spec(NrHmReset, "XM_hm_reset", CatHM)),
	// Trace Management
	spec(NrTraceEvent, "XM_trace_event", CatTrace, p("bitmask", "xm_u32_t"), pp("event")),
	spec(NrTraceRead, "XM_trace_read", CatTrace, p("id", "xm_s32_t"), pp("event")),
	spec(NrTraceSeek, "XM_trace_seek", CatTrace,
		p("id", "xm_s32_t"), p("offset", "xm_s32_t"), p("whence", "xm_u32_t")),
	spec(NrTraceStatus, "XM_trace_status", CatTrace, p("id", "xm_s32_t"), pp("status")),
	spec(NrTraceOpen, "XM_trace_open", CatTrace, p("id", "xm_s32_t")),
	// Interrupt Management
	spec(NrEnableIrqs, "XM_enable_irqs", CatInterrupt),
	spec(NrSetIrqMask, "XM_set_irqmask", CatInterrupt,
		p("hwIrqsMask", "xm_u32_t"), p("extIrqsMask", "xm_u32_t")),
	spec(NrClearIrqMask, "XM_clear_irqmask", CatInterrupt,
		p("hwIrqsMask", "xm_u32_t"), p("extIrqsMask", "xm_u32_t")),
	spec(NrSetIrqPend, "XM_set_irqpend", CatInterrupt,
		p("hwIrqMask", "xm_u32_t"), p("extIrqMask", "xm_u32_t")),
	spec(NrRouteIrq, "XM_route_irq", CatInterrupt,
		p("type", "xm_u32_t"), p("irq", "xm_u32_t"), p("vector", "xm_u32_t")),
	// Miscellaneous
	sys(spec(NrMulticall, "XM_multicall", CatMisc, pp("startAddr"), pp("endAddr"))),
	spec(NrWriteConsole, "XM_write_console", CatMisc, pp("buffer"), p("length", "xm_u32_t")),
	spec(NrGetGidByName, "XM_get_gid_by_name", CatMisc, pp("name"), p("entity", "xm_u32_t")),
	spec(NrFlushCache, "XM_flush_cache", CatMisc, p("cache", "xm_u32_t")),
	spec(NrGetParams, "XM_get_params", CatMisc, pp("params")),
	// Sparc V8 Specific
	spec(NrSparcAtomicAdd, "XM_sparc_atomic_add", CatSparc, pp("dest"), p("value", "xm_u32_t")),
	spec(NrSparcAtomicAnd, "XM_sparc_atomic_and", CatSparc, pp("dest"), p("mask", "xm_u32_t")),
	spec(NrSparcAtomicOr, "XM_sparc_atomic_or", CatSparc, pp("dest"), p("mask", "xm_u32_t")),
	spec(NrSparcInPort, "XM_sparc_inport", CatSparc, p("port", "xm_u32_t"), pp("value")),
	spec(NrSparcOutPort, "XM_sparc_outport", CatSparc, p("port", "xm_u32_t"), p("value", "xm_u32_t")),
	spec(NrSparcGetPsr, "XM_sparc_get_psr", CatSparc),
	spec(NrSparcSetPsr, "XM_sparc_set_psr", CatSparc, p("psr", "xm_u32_t")),
	spec(NrSparcWriteTbr, "XM_sparc_write_tbr", CatSparc, p("tbr", "xm_u32_t")),
	spec(NrSparcFlushRegWin, "XM_sparc_flush_regwin", CatSparc),
	spec(NrSparcEnableTraps, "XM_sparc_enable_traps", CatSparc),
	spec(NrSparcDisableTrap, "XM_sparc_disable_traps", CatSparc),
	spec(NrSparcIFlush, "XM_sparc_iflush", CatSparc, p("addr", "xmAddress_t")),
}

// byNr indexes the registry by hypercall number (nil where no hypercall
// has that number): the dispatcher reads a caller's rights through it.
var byNr = func() (t [NumHypercalls + 1]*Spec) {
	for i := range registry {
		s := &registry[i]
		if s.Nr > NumHypercalls {
			panic(fmt.Sprintf("hypercall nr %d exceeds NumHypercalls", s.Nr))
		}
		if t[s.Nr] != nil {
			panic(fmt.Sprintf("duplicate hypercall nr %d", s.Nr))
		}
		t[s.Nr] = s
	}
	return t
}()

// specOf returns the registry entry of a hypercall number (nil when
// there is none).
func specOf(nr Nr) *Spec {
	if nr >= Nr(len(byNr)) {
		return nil
	}
	return byNr[nr]
}

// byName indexes the registry by hypercall name.
var byName = func() map[string]*Spec {
	m := make(map[string]*Spec, len(registry))
	for i := range registry {
		m[registry[i].Name] = &registry[i]
	}
	return m
}()

// Hypercalls returns all hypercall specs ordered by number.
func Hypercalls() []Spec {
	out := append([]Spec(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Nr < out[j].Nr })
	return out
}

// Lookup returns the spec for a hypercall number.
func Lookup(nr Nr) (Spec, bool) {
	s := specOf(nr)
	if s == nil {
		return Spec{}, false
	}
	return *s, true
}

// LookupName returns the spec for a hypercall name (e.g. "XM_set_timer").
func LookupName(name string) (Spec, bool) {
	s, ok := byName[name]
	if !ok {
		return Spec{}, false
	}
	return *s, true
}

// ByCategory returns the specs of one category ordered by number.
func ByCategory(cat Category) []Spec {
	var out []Spec
	for _, s := range Hypercalls() {
		if s.Category == cat {
			out = append(out, s)
		}
	}
	return out
}
