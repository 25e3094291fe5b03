package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// smokeRun runs one workload at the smoke sizes with the fewest operations
// the mode allows.
func smokeRun(t *testing.T, name string, traced bool) *result {
	t.Helper()
	setup, err := newRunner(name, smokeSizes, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := runWorkload(ctx, setup, 0, traced)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed", name, res.failed, res.attempted)
	}
	return res
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range workloadNames {
		m := endToEnd(smokeRun(t, name, false))
		for _, e := range benchmarkSpec(t).EndToEnd {
			if v, ok := m[e.Name]; !ok || v.Value <= 0 || v.Unit != e.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", name, e.Name, v, e.Unit)
			}
		}
	}
}

// TestExactCountsRepeat runs every workload traced twice and requires each
// exact count to agree between the operations of a run and between runs.
func TestExactCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			res := smokeRun(t, name, true)
			if len(res.unstable) > 0 {
				t.Errorf("%s: counts %v differ between operations", name, res.unstable)
			}
			m := perLayerMetrics(res)
			counts := make(map[string]float64, len(exactCounts))
			for _, c := range exactCounts {
				counts[c] = m[c].Value
			}
			if first == nil {
				first = counts
			} else if !reflect.DeepEqual(first, counts) {
				t.Errorf("%s: exact counts differ between runs:\n%v\n%v", name, first, counts)
			}
			if len(m) != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics, want %d", name, len(m), len(perLayer))
			}
		}
		t.Logf("%s: %v", name, first)
	}
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func benchmarkSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the printed metric names
// and units in step.
func TestSpecMatchesProgram(t *testing.T) {
	s := benchmarkSpec(t)
	var e2e []string
	for name := range endToEnd(&result{attempted: 1}) {
		e2e = append(e2e, name)
	}
	var specE2E []string
	for _, e := range s.EndToEnd {
		specE2E = append(specE2E, e.Name)
	}
	sort.Strings(e2e)
	sort.Strings(specE2E)
	if !reflect.DeepEqual(e2e, specE2E) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", e2e, specE2E)
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if m.Name != perLayer[i] || m.Unit != layerUnit(m.Name) {
			t.Errorf("per-layer %d: BENCHMARK.json has %s in %s, the program prints %s in %s",
				i, m.Name, m.Unit, perLayer[i], layerUnit(perLayer[i]))
		}
	}
}
