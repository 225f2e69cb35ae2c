// Package bench is the end-to-end and per-layer benchmark of xqserve: it
// builds cmd/xqserve, runs it as a subprocess, drives it over HTTP with a
// closed loop of keep-alive clients, verifies every response against an
// in-process reference, and — in a separate traced run — splits the same
// requests into layers by timing calls into the layers' public functions.
// BENCHMARK.json at the repository root names every metric it prints.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// MetricSpec is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is the part of BENCHMARK.json the benchmark itself reads.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// FindRoot walks up from dir to the directory that holds BENCHMARK.json.
func FindRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no BENCHMARK.json in this directory or any parent")
		}
		dir = parent
	}
}

// LoadSpec reads BENCHMARK.json from the repository root.
func LoadSpec(root string) (*Spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Value is one measured metric as the result line prints it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Select returns the measured value of every metric in specs, with the
// spec's unit. A metric the run did not produce is an error: the result
// line must carry exactly the metrics BENCHMARK.json names.
func Select(specs []MetricSpec, measured map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(specs))
	for _, m := range specs {
		v, ok := measured[m.Name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	return out, nil
}
