// Fullcampaign reproduces the paper's complete case study end to end
// through the public pkg/xmrobust API: the 2661-test data-type
// fault-model campaign against the legacy XtratuM-like kernel, the Table
// III aggregation, the CRASH tally, the nine §IV.C issues — and then the
// same campaign against the patched kernel as the fault-removal
// ablation.
//
//	go run ./examples/fullcampaign
package main

import (
	"fmt"
	"log"
	"time"

	"xmrobust/pkg/xmrobust"
)

func run(name string, opts ...xmrobust.Option) *xmrobust.Report {
	start := time.Now()
	rep, err := xmrobust.Run(opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== %s kernel: campaign of %d tests in %v ===\n\n",
		name, rep.Total(), time.Since(start).Round(time.Millisecond))
	return rep
}

func main() {
	// The engine leases runs of 16 tests per worker slot by default (see
	// WithBatchSize); results are byte-identical whatever the lease.
	legacy := run("legacy", xmrobust.WithFaults(xmrobust.LegacyFaults()))
	fmt.Println(legacy.Summary())

	patched := run("patched", xmrobust.WithPatchedKernel())
	fmt.Println(patched.TableText())
	fmt.Printf("fault-removal ablation: %d issues on the legacy kernel, %d after the fixes\n",
		len(legacy.Issues()), len(patched.Issues()))
}
