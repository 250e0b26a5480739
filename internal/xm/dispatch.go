package xm

import "xmrobust/internal/sparc"

// arg helpers: hypercall arguments travel as uint64 registers; services
// narrow them to the declared parameter type exactly as the SPARC ABI
// would (truncation, not range checking — range checking is the service's
// job, and the absence of it is what the campaign probes).

func arg(args []uint64, i int) uint64 {
	if i < len(args) {
		return args[i]
	}
	return 0
}

func argU32(args []uint64, i int) uint32 { return uint32(arg(args, i)) }
func argS32(args []uint64, i int) int32  { return int32(uint32(arg(args, i))) }
func argS64(args []uint64, i int) int64  { return int64(arg(args, i)) }
func argPtr(args []uint64, i int) sparc.Addr {
	return sparc.Addr(uint32(arg(args, i)))
}

// dispatch validates privilege and routes a hypercall to its service.
// It charges the base hypercall cost; services charge any additional work.
// With a coverage sink attached it also records the (nr, return) edge and
// tags HM events raised inside the service with the dispatching nr; the
// uninstrumented path pays a single nil check.
func (k *Kernel) dispatch(caller *Partition, nr Nr, args []uint64) RetCode {
	if k.cover == nil {
		return k.route(caller, nr, args)
	}
	prev := k.coverNr
	k.coverNr = nr
	// Services abort mid-dispatch through the guestStop panic (resets,
	// halts, XM_idle_self); the deferred restore keeps nr attribution
	// correct for the enclosing dispatch, and the outcome edge of an
	// aborted call is deliberately not recorded — the guest never saw a
	// return code.
	defer func() { k.coverNr = prev }()
	ret := k.route(caller, nr, args)
	k.cover.Hit(CoverSiteDispatch(nr, ret))
	return ret
}

// route is the uninstrumented dispatcher body.
func (k *Kernel) route(caller *Partition, nr Nr, args []uint64) RetCode {
	k.hypercallCount++
	k.charge(HypercallCost)
	spec := specOf(nr)
	if spec == nil {
		return UnknownHypercall
	}
	if spec.SystemOnly && !caller.System() {
		return PermError
	}
	switch nr {
	// System Management
	case NrHaltSystem:
		return k.hcHaltSystem(caller)
	case NrResetSystem:
		return k.hcResetSystem(caller, argU32(args, 0))
	case NrGetSystemStatus:
		return k.hcGetSystemStatus(caller, argPtr(args, 0))
	// Partition Management
	case NrHaltPartition:
		return k.hcHaltPartition(caller, argS32(args, 0))
	case NrResetPartition:
		return k.hcResetPartition(caller, argS32(args, 0), argU32(args, 1), argU32(args, 2))
	case NrSuspendPartition:
		return k.hcSuspendPartition(caller, argS32(args, 0))
	case NrResumePartition:
		return k.hcResumePartition(caller, argS32(args, 0))
	case NrShutdownPartition:
		return k.hcShutdownPartition(caller, argS32(args, 0))
	case NrGetPartitionStatus:
		return k.hcGetPartitionStatus(caller, argS32(args, 0), argPtr(args, 1))
	case NrIdleSelf:
		return k.hcIdleSelf(caller)
	case NrSuspendSelf:
		return k.hcSuspendSelf(caller)
	case NrGetPartitionMmap:
		return k.hcGetPartitionMmap(caller, argPtr(args, 0))
	case NrSetPartitionOpMode:
		return k.hcSetPartitionOpMode(caller, argU32(args, 0))
	// Time Management
	case NrGetTime:
		return k.hcGetTime(caller, argU32(args, 0), argPtr(args, 1))
	case NrSetTimer:
		return k.hcSetTimer(caller, argU32(args, 0), argS64(args, 1), argS64(args, 2))
	// Plan Management
	case NrSwitchSchedPlan:
		return k.hcSwitchSchedPlan(caller, argU32(args, 0), argPtr(args, 1))
	case NrGetPlanStatus:
		return k.hcGetPlanStatus(caller, argPtr(args, 0))
	// Inter-Partition Communication
	case NrCreateSamplingPort:
		return k.hcCreateSamplingPort(caller, argPtr(args, 0), argU32(args, 1), argU32(args, 2))
	case NrWriteSamplingMsg:
		return k.hcWriteSamplingMsg(caller, argS32(args, 0), argPtr(args, 1), argU32(args, 2))
	case NrReadSamplingMsg:
		return k.hcReadSamplingMsg(caller, argS32(args, 0), argPtr(args, 1), argU32(args, 2))
	case NrCreateQueuingPort:
		return k.hcCreateQueuingPort(caller, argPtr(args, 0), argU32(args, 1), argU32(args, 2), argU32(args, 3))
	case NrSendQueuingMsg:
		return k.hcSendQueuingMsg(caller, argS32(args, 0), argPtr(args, 1), argU32(args, 2))
	case NrReceiveQueuingMsg:
		return k.hcReceiveQueuingMsg(caller, argS32(args, 0), argPtr(args, 1), argU32(args, 2))
	case NrGetPortStatus:
		return k.hcGetPortStatus(caller, argS32(args, 0), argPtr(args, 1))
	case NrClosePort:
		return k.hcClosePort(caller, argS32(args, 0))
	case NrFlushPort:
		return k.hcFlushPort(caller, argS32(args, 0))
	case NrGetPortInfo:
		return k.hcGetPortInfo(caller, argPtr(args, 0), argPtr(args, 1))
	// Memory Management
	case NrMemoryCopy:
		return k.hcMemoryCopy(caller, argPtr(args, 0), argPtr(args, 1), argU32(args, 2))
	case NrUpdatePage32:
		return k.hcUpdatePage32(caller, argPtr(args, 0), argU32(args, 1))
	// Health Monitor Management
	case NrHmRead:
		return k.hcHmRead(caller, argPtr(args, 0), argU32(args, 1))
	case NrHmSeek:
		return k.hcHmSeek(caller, argS32(args, 0), argU32(args, 1))
	case NrHmStatus:
		return k.hcHmStatus(caller, argPtr(args, 0))
	case NrHmOpen:
		return OK
	case NrHmReset:
		k.hm.clearLog()
		return OK
	// Trace Management
	case NrTraceEvent:
		return k.hcTraceEvent(caller, argU32(args, 0), argPtr(args, 1))
	case NrTraceRead:
		return k.hcTraceRead(caller, argS32(args, 0), argPtr(args, 1))
	case NrTraceSeek:
		return k.hcTraceSeek(caller, argS32(args, 0), argS32(args, 1), argU32(args, 2))
	case NrTraceStatus:
		return k.hcTraceStatus(caller, argS32(args, 0), argPtr(args, 1))
	case NrTraceOpen:
		return k.hcTraceOpen(caller, argS32(args, 0))
	// Interrupt Management
	case NrEnableIrqs:
		return k.hcEnableIrqs(caller)
	case NrSetIrqMask:
		return k.hcSetIrqMask(caller, argU32(args, 0), argU32(args, 1))
	case NrClearIrqMask:
		return k.hcClearIrqMask(caller, argU32(args, 0), argU32(args, 1))
	case NrSetIrqPend:
		return k.hcSetIrqPend(caller, argU32(args, 0), argU32(args, 1))
	case NrRouteIrq:
		return k.hcRouteIrq(caller, argU32(args, 0), argU32(args, 1), argU32(args, 2))
	// Miscellaneous
	case NrMulticall:
		return k.hcMulticall(caller, argPtr(args, 0), argPtr(args, 1))
	case NrWriteConsole:
		return k.hcWriteConsole(caller, argPtr(args, 0), argU32(args, 1))
	case NrGetGidByName:
		return k.hcGetGidByName(caller, argPtr(args, 0), argU32(args, 1))
	case NrFlushCache:
		return k.hcFlushCache(caller, argU32(args, 0))
	case NrGetParams:
		return k.hcGetParams(caller, argPtr(args, 0))
	// Sparc V8 Specific
	case NrSparcAtomicAdd:
		return k.hcSparcAtomic(caller, argPtr(args, 0), argU32(args, 1), atomicAdd)
	case NrSparcAtomicAnd:
		return k.hcSparcAtomic(caller, argPtr(args, 0), argU32(args, 1), atomicAnd)
	case NrSparcAtomicOr:
		return k.hcSparcAtomic(caller, argPtr(args, 0), argU32(args, 1), atomicOr)
	case NrSparcInPort:
		return k.hcSparcInPort(caller, argU32(args, 0), argPtr(args, 1))
	case NrSparcOutPort:
		return k.hcSparcOutPort(caller, argU32(args, 0), argU32(args, 1))
	case NrSparcGetPsr:
		return RetCode(caller.psr & 0x7FFFFFFF)
	case NrSparcSetPsr:
		return k.hcSparcSetPsr(caller, argU32(args, 0))
	case NrSparcWriteTbr:
		return k.hcSparcWriteTbr(caller, argU32(args, 0))
	case NrSparcFlushRegWin, NrSparcEnableTraps, NrSparcDisableTrap:
		return OK
	case NrSparcIFlush:
		return k.hcSparcIFlush(caller, argPtr(args, 0))
	}
	return UnknownHypercall
}
