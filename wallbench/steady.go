package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs every workload n times, each run in its own process,
// alternating the workload order from one repetition to the next, and
// prints each metric's median and quartiles per workload. A metric whose
// spread (interquartile range over median) exceeds its BENCHMARK.json
// bound is flagged.
func runSteady(n int, seed int64, secs int, traced bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	failed := map[string][2]int{}
	for i := 0; i < n; i++ {
		order := append([]string(nil), workloadNames...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			s := seed + int64(i)
			cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(secs), "-trace", trace)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			printLeading(out)
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			fmt.Fprintf(os.Stderr, "run %d %s seed %d: attempted %d failed %d%s\n", i+1, w, s, res.Attempted, res.Failed, formatMetrics(res.Metrics))
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
				units[name] = m.Unit
			}
			f := failed[w]
			failed[w] = [2]int{f[0] + res.Attempted, f[1] + res.Failed}
		}
	}
	fmt.Printf("%-13s %-36s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloadNames {
		names := make([]string, 0, len(values[w]))
		for name := range values[w] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vs := values[w][name]
			q1, med, q3 := quantile(vs, 0.25), median(vs), quantile(vs, 0.75)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			flag, bound := "", "-"
			if b, ok := bounds[name]; ok {
				bound = fmt.Sprintf("%.2f", b)
				if spread > b {
					flag = "  SPREAD EXCEEDS BOUND"
				}
			}
			fmt.Printf("%-13s %-36s %12.6g %12.6g %12.6g %7.1f%% %6s %s%s\n", w, name, q1, med, q3, 100*spread, bound, units[name], flag)
		}
		fmt.Printf("%-13s %-36s attempted %d, failed %d\n", w, "operations", failed[w][0], failed[w][1])
	}
	return nil
}

// formatMetrics renders a run's metrics as " name=value" pairs in name
// order.
func formatMetrics(m map[string]metric) string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%.4g", name, m[name].Value)
	}
	return b.String()
}

// printLeading echoes a run's output before its result line: the
// traced run's tracing-overhead and ledger rows.
func printLeading(out []byte) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}
