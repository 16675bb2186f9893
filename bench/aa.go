package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// aaRun is the benchmark's own repeatability check: the same code
// measured as two sets, A and B, of n untraced suite runs each,
// interleaved A B A B … so that slow drift of the host lands on both.
// Every run has a seed of its own (set A base, base+2, …; set B base+1,
// base+3, …), so what the inputs add to a metric's scatter is in the
// report too. It prints, per workload and metric, both medians, their
// relative gap, the metric's bound, and the spread of all 2n values
// (quartile distance over median, as the benchmark driver computes it),
// and fails if a gap exceeds its bound: a regression gate narrower than
// the distance between two measurements of the same code would reject
// unchanged code.
func aaRun(c runConfig, n int) int {
	type key struct{ workload, metric string }
	values := make(map[key]*[2][]float64)
	base, start, code := c.seed, time.Now(), 0
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range allWorkloads() {
				c.w, c.trace, c.seed = w, false, base+int64(2*i+set)
				res, err := runWorkload(&c)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %c run %d %s: %d of %d ops failed\n", 'A'+set, i+1, w.Name, res.failed, res.attempted)
				for _, p := range res.problems {
					fmt.Printf("PROBLEM set %c run %d %s: %s\n", 'A'+set, i+1, w.Name, p)
					code = 1
				}
				for _, m := range endToEndSpecs {
					k := key{w.Name, m.Name}
					if values[k] == nil {
						values[k] = new([2][]float64)
					}
					values[k][set] = append(values[k][set], res.metrics[m.Name])
				}
			}
		}
	}
	fmt.Printf("A/A report: %d runs per set, interleaved A B A B …, seeds %d–%d, --seconds %d, %.0f s in all\n",
		n, base, base+int64(2*n)-1, c.seconds, time.Since(start).Seconds())
	fmt.Printf("%-16s %-26s %13s %13s %7s %6s %7s\n", "workload", "metric", "median A", "median B", "gap", "bound", "spread")
	for _, w := range workloadSpecs {
		for _, m := range endToEndSpecs {
			v := values[key{w.Name, m.Name}]
			a, b := median(v[0]), median(v[1])
			gap := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			verdict := "ok"
			if !(gap <= m.Bound) {
				verdict, code = "OVER BOUND", 1
			}
			spread := iqrOverMedian(append(append([]float64(nil), v[0]...), v[1]...))
			fmt.Printf("%-16s %-26s %13.6g %13.6g %7.4f %6.2f %7.4f  %s\n", w.Name, m.Name, a, b, gap, m.Bound, spread, verdict)
		}
	}
	return code
}
