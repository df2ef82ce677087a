// Command sentinel-bench regenerates the experiment tables documented in
// EXPERIMENTS.md: the §5 worked examples against the Ode- and ADAM-style
// baselines (E1, E2), the performance-claim measurements (P1–P10), and the
// §7 comparison matrix (C1).
//
// Usage:
//
//	sentinel-bench                 # run everything
//	sentinel-bench -exp P1,E1      # run a subset
//	sentinel-bench -quick          # reduced sizes (CI-friendly)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sentinel/internal/bench"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (E1,E2,P1..P10,C1) or 'all'")
	quick := flag.Bool("quick", false, "run at reduced sizes")
	flag.Parse()

	sizes := struct {
		p1Sizes    []int
		p1Events   int
		p2Sends    int
		p3Feeds    int
		p4Counts   []int
		p5Counts   []int
		p5Events   int
		p6Sends    int
		p6Txs      int
		p7Counts   []int
		p8Sends    int
		p9Counts   []int
		p10Commits int
	}{
		p1Sizes: []int{10, 100, 1000, 4000}, p1Events: 2000,
		p2Sends: 20000, p3Feeds: 200000,
		p4Counts: []int{100, 1000, 5000},
		p5Counts: []int{100, 1000, 5000}, p5Events: 2000,
		p6Sends: 100, p6Txs: 50,
		p7Counts: []int{100, 1000, 5000},
		p8Sends:  20000,
		p9Counts: []int{100, 1000, 10000}, p10Commits: 200,
	}
	if *quick {
		sizes.p1Sizes, sizes.p1Events = []int{10, 100, 500}, 500
		sizes.p2Sends, sizes.p3Feeds = 5000, 50000
		sizes.p4Counts = []int{100, 500}
		sizes.p5Counts, sizes.p5Events = []int{100, 500}, 500
		sizes.p6Sends, sizes.p6Txs = 50, 20
		sizes.p7Counts = []int{100, 500}
		sizes.p8Sends = 5000
		sizes.p9Counts = []int{100, 1000}
		sizes.p10Commits = 50
	}

	run := map[string]func(){
		"E1":  func() { bench.RunE1().Fprint(os.Stdout) },
		"E2":  func() { bench.RunE2().Fprint(os.Stdout) },
		"P1":  func() { bench.RunP1(sizes.p1Sizes, sizes.p1Events).Fprint(os.Stdout) },
		"P2":  func() { bench.RunP2(sizes.p2Sends).Fprint(os.Stdout) },
		"P3":  func() { bench.RunP3(sizes.p3Feeds).Fprint(os.Stdout) },
		"P4":  func() { bench.RunP4(sizes.p4Counts).Fprint(os.Stdout) },
		"P5":  func() { bench.RunP5(sizes.p5Counts, sizes.p5Events).Fprint(os.Stdout) },
		"P6":  func() { bench.RunP6(sizes.p6Sends, sizes.p6Txs).Fprint(os.Stdout) },
		"P7":  func() { bench.RunP7(sizes.p7Counts).Fprint(os.Stdout) },
		"P8":  func() { bench.RunP8(sizes.p8Sends).Fprint(os.Stdout) },
		"P9":  func() { bench.RunP9(sizes.p9Counts, 200).Fprint(os.Stdout) },
		"P10": func() { bench.RunP10(nil, sizes.p10Commits).Fprint(os.Stdout) },
		"C1":  func() { bench.RunC1().Fprint(os.Stdout) },
	}
	order := []string{"E1", "E2", "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "C1"}

	fmt.Println("Sentinel reproduction — experiment suite")
	fmt.Println("========================================")
	fmt.Println()
	if *expFlag == "all" {
		for _, id := range order {
			run[id]()
		}
		return
	}
	for _, id := range strings.Split(*expFlag, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		fn, ok := run[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", id, strings.Join(order, ", "))
			os.Exit(2)
		}
		fn()
	}
}
