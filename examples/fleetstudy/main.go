// fleetstudy runs a miniature version of the §3 user study: twenty
// synthetic participants, each with their own device and usage habits,
// and prints the pressure-exposure summary.
//
//	go run ./examples/fleetstudy
package main

import (
	"fmt"
	"log"

	"coalqoe/internal/proc"
	"coalqoe/internal/study"
)

func main() {
	agg, _, err := study.RunFleetStream(study.FleetConfig{Users: 20, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recruited %d, kept %d with >=%.0fh interactive data\n\n",
		agg.Recruited, agg.Kept, study.MinInteractiveHours)

	fmt.Printf("%-8s %5s %6s %22s %14s\n", "user", "RAM", "util", "signals/h (M/L/C)", "time pressured")
	for _, s := range agg.Summaries {
		fmt.Printf("%-8s %4.0fG %5.0f%% %7.1f /%5.1f /%5.1f %13.1f%%\n",
			s.ID, s.RAMGiB,
			100*s.MedianUtilization,
			s.SignalsPerHour[proc.Moderate], s.SignalsPerHour[proc.Low], s.SignalsPerHour[proc.Critical],
			100*s.HighShare)
	}

	ins := agg.Table1()
	fmt.Println()
	fmt.Printf("experienced pressure (>=1 signal/h): %.0f%%\n", ins.PctAnySignal)
	fmt.Printf("median utilization >= 60%%:           %.0f%%\n", ins.PctUtilOver60)
	fmt.Printf(">=2%% of time under pressure:         %.0f%%\n", ins.PctHighTimeOver2)
}
