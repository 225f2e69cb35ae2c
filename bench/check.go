package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// runTwoSets runs two end-to-end sets of the same code with the same seed —
// one run of every workload per set — and returns
// values[workload][metric][set].
func runTwoSets(ctx context.Context, cfg Config, workloads []Workload, log io.Writer) (map[string]map[string][]float64, error) {
	values := make(map[string]map[string][]float64)
	for set := 0; set < 2; set++ {
		for _, w := range workloads {
			res, err := RunEndToEnd(ctx, cfg, w)
			if err != nil {
				return nil, err
			}
			if !res.Correct {
				return nil, fmt.Errorf("bench: %s: %d of %d responses failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
			}
			fmt.Fprintf(log, "set %d  %-16s seed %d  load %s\n", set+1, w.Name, cfg.Seed, res.Env.LoadAvg)
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for name, v := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v)
			}
		}
	}
	return values, nil
}

// worse returns by what share of a the value b is worse than a, negative
// when it is better.
func worse(m MetricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// checkRow is one metric of one workload in the self-check report.
type checkRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	// Observed is by what share the worse of the two sets is worse than the
	// other.
	Observed float64 `json:"observed"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// SelfCheck runs two end-to-end sets of the same code with the same seed
// and reports whether every metric of the second set is within its bound
// of the first, in either direction. The rows go to selfcheck.json in the
// output directory.
func SelfCheck(ctx context.Context, cfg Config, spec *Spec, workloads []Workload, log io.Writer) (bool, error) {
	values, err := runTwoSets(ctx, cfg, workloads, log)
	if err != nil {
		return false, err
	}
	var rows []checkRow
	allOK := true
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			v := values[w.Name][m.Name]
			d := worse(m, v[0], v[1])
			if d < 0 {
				d = worse(m, v[1], v[0])
			}
			row := checkRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Values: v, Observed: d, Bound: m.Bound, OK: d <= m.Bound}
			allOK = allOK && row.OK
			rows = append(rows, row)
			fmt.Fprintf(log, "%-16s %-16s %12.4f %12.4f %-6s differ %5.1f%%  bound %4.1f%%  ok=%t\n",
				w.Name, m.Name, v[0], v[1], m.Unit, 100*d, 100*m.Bound, row.OK)
		}
	}
	data, err := json.MarshalIndent(struct {
		Env  Env        `json:"env"`
		Rows []checkRow `json:"rows"`
	}{NewEnv(cfg), rows}, "", "  ")
	if err != nil {
		return false, err
	}
	return allOK, os.WriteFile(filepath.Join(cfg.OutDir, "selfcheck.json"), append(data, '\n'), 0o644)
}
