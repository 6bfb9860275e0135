// Chrome-scale instrumentation (paper §7.3).
//
// Generates a large Chrome-like binary (thousands of functions, indirect
// calls through jump tables), hardens every write with the combined
// (Redzone)+(LowFat) check, prints the rewriting statistics, and runs a
// mini Kraken benchmark sweep comparing baseline and hardened cycles.
//
// Run with: go run ./examples/chrome-scale [-fillers 8000]
package main

import (
	"flag"
	"fmt"
	"log"

	"redfat"
	"redfat/internal/bench"
	"redfat/internal/kraken"
)

func main() {
	fillers := flag.Int("fillers", 8000, "filler function count (binary size knob)")
	scale := flag.Uint64("scale", 800, "Kraken workload scale")
	flag.Parse()

	bin, err := kraken.Build(*fillers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chrome-like image: %d KB of text, %d functions, stripped\n",
		len(bin.Text().Data)/1024, *fillers+2*len(kraken.Benchmarks)+1)

	opt := redfat.Defaults()
	opt.CheckReads = false // §7.3: write protection
	hard, rep, err := redfat.Harden(bin, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instrumented: %s\n\n", rep)

	fmt.Printf("%-22s %10s %10s %9s\n", "kraken benchmark", "baseline", "hardened", "overhead")
	var slows []float64
	for i, name := range kraken.Benchmarks {
		input := []uint64{uint64(i), *scale}
		base, err := redfat.Run(bin, redfat.RunOptions{Input: input})
		if err != nil {
			log.Fatal(err)
		}
		hv, err := redfat.Run(hard, redfat.RunOptions{
			Input: input, Hardened: true, Abort: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if hv.ExitCode != base.ExitCode {
			log.Fatalf("%s: checksum mismatch", name)
		}
		s := float64(hv.Cycles) / float64(base.Cycles)
		slows = append(slows, s)
		fmt.Printf("%-22s %10d %10d %8.0f%%\n", name, base.Cycles, hv.Cycles, s*100)
	}
	fmt.Printf("%-22s %21s %8.0f%%\n", "Geometric Mean", "", bench.GeoMean(slows)*100)
}
