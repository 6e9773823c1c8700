// Pivot: find the pivot point — the largest task count a scheduler handles
// without a single deadline miss (paper Section V) — for both the naive
// baseline and SGPRS in Scenario 1, by sweeping the task count.
//
//	go run ./examples/pivot
package main

import (
	"fmt"
	"log"

	"sgprs"
)

func main() {
	log.SetFlags(0)
	counts := []int{4, 8, 12, 14, 16, 18, 20, 22, 24, 26, 28}
	configs := []sgprs.RunConfig{
		{Kind: sgprs.KindNaive, Name: "naive", ContextSMs: sgprs.ContextPool(2, 1.0, 68)},
		{Kind: sgprs.KindSGPRS, Name: "sgprs-2.0x", ContextSMs: sgprs.ContextPool(2, 2.0, 68)},
	}
	fmt.Println("pivot search, Scenario 1 (two contexts), 30 fps ResNet18 tasks")
	for _, base := range configs {
		base.HorizonSec = 5
		series, err := sgprs.SweepSeries(base, counts)
		if err != nil {
			log.Fatal(err)
		}
		pivot := sgprs.PivotPoint(series)
		fmt.Printf("\n%s:\n", base.Name)
		for _, p := range series {
			marker := ""
			if p.Tasks == pivot {
				marker = "  <- pivot point"
			}
			fmt.Printf("  %2d tasks: %6.1f fps, DMR %.3f%s\n",
				p.Tasks, p.Summary.TotalFPS, p.Summary.DMR, marker)
		}
		fmt.Printf("  pivot: %d tasks, saturation %.0f fps\n",
			pivot, sgprs.SaturationFPS(series))
	}
}
