// Quickstart: boot the EagleEye TSP testbed on the simulated LEON3, watch
// the synthetic on-board software fly for a second of virtual time, then
// throw the paper's sharpest dataset at the kernel and watch the health
// monitor catch it — entirely through the public pkg/xmrobust API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"xmrobust/pkg/xmrobust"
)

func main() {
	// 1. Boot the five-partition EagleEye system (250 ms major frame,
	//    FDIR as the only system partition) on a legacy XtratuM-like
	//    kernel and run four cyclic schedules.
	k, err := xmrobust.NewSystem()
	if err != nil {
		log.Fatal(err)
	}
	if err := k.RunMajorFrames(4); err != nil {
		log.Fatal(err)
	}
	st := k.Status()
	fmt.Printf("nominal mission: %d major frames, kernel %s, %d hypercalls served\n",
		st.MAFCount, st.State, k.HypercallCount())
	rep, _ := xmrobust.TestbedStatus(k)
	fmt.Printf("FDIR saw %d partitions up, drained %d downlink frames\n\n",
		rep.PartitionsUp, rep.FramesDrained)

	// 2. Generate the test datasets for one hypercall with the data type
	//    fault model (paper Fig. 4/5 pipeline).
	header := xmrobust.DefaultHeader()
	f, _ := header.Function("XM_set_timer")
	matrix, err := xmrobust.BuildMatrix(f, xmrobust.BuiltinDict())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("XM_set_timer: %d datasets from the type dictionaries (Eq. 1)\n",
		matrix.Combinations())

	// 3. Inject each dataset from the FDIR partition on a fresh testbed
	//    and report what the kernel did.
	for _, ds := range matrix.Datasets() {
		res, err := xmrobust.RunOne(ds)
		if err != nil {
			log.Fatal(err)
		}
		outcome := "robust"
		switch {
		case res.SimCrashed:
			outcome = "SIMULATOR CRASH: " + res.CrashReason
		case res.KernelState == xmrobust.KStateHalted:
			outcome = "XM HALT: " + res.KernelHalt
		default:
			if rc, ok := res.LastReturn(); ok {
				outcome = rc.String()
			}
		}
		fmt.Printf("  %-70s -> %s\n", ds, outcome)
	}
	fmt.Println("\nRun cmd/xmfuzz for the full 2661-test campaign.")
}
