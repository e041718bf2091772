package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests hold the code to.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileListsWhatTheCodeMeasures(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the code %s", i, w.Name, workloads[i].name)
		}
	}
	gated := gatedMetrics()
	if len(f.EndToEnd) != len(gated) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the code gates %d", len(f.EndToEnd), len(gated))
	}
	for _, e := range f.EndToEnd {
		def := findMetric(gated, e.Name)
		if def == nil {
			t.Errorf("end-to-end metric %s is not gated", e.Name)
		} else if def.on != nil {
			t.Errorf("%s is gated but not measured on every workload", e.Name)
		} else if def.unit != e.Unit || def.better != e.Better || def.bound != e.Bound {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%v, the code %s/%s/%v", e.Name, e.Unit, e.Better, e.Bound, def.unit, def.better, def.bound)
		}
	}
	layers := layerMetrics()
	if len(f.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the code %d", len(f.PerLayer), len(layers))
	}
	for _, e := range f.PerLayer {
		def := findMetric(layers, e.Name)
		if def == nil {
			t.Errorf("per-layer metric %s is not measured", e.Name)
		} else if def.unit != e.Unit || def.better != e.Better {
			t.Errorf("%s: BENCHMARK.json says %s/%s, the code %s/%s", e.Name, e.Unit, e.Better, def.unit, def.better)
		}
	}
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}

// keys returns the sorted metric names of a result line.
func keys(l resultLine) []string {
	var out []string
	for k := range l.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestResultLineCarriesExactlyTheListedMetrics(t *testing.T) {
	f := readBenchmarkFile(t)
	rep := &runReport{Metrics: values{"extra.not_listed": 1}}
	for _, traced := range []bool{false, true} {
		var want []string
		if traced {
			for _, e := range f.PerLayer {
				want = append(want, e.Name)
			}
		} else {
			for _, e := range f.EndToEnd {
				want = append(want, e.Name)
			}
		}
		sort.Strings(want)
		got := keys(newResultLine(rep, traced))
		if len(got) != len(want) {
			t.Fatalf("traced=%v: result line has %d metrics, BENCHMARK.json %d", traced, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("traced=%v: result line has %s where BENCHMARK.json has %s", traced, got[i], want[i])
			}
		}
	}
}

func TestResultFileHoldsEveryWorkload(t *testing.T) {
	f := readBenchmarkFile(t)
	res := newResult(header{})
	if len(res.Workloads) != len(f.Workloads) {
		t.Fatalf("result has %d workloads, BENCHMARK.json %d", len(res.Workloads), len(f.Workloads))
	}
	for _, w := range f.Workloads {
		rep := &runReport{Workload: w.Name, Correct: true, Metrics: values{}}
		endToEndMetrics(rep, findWorkload(w.Name), &window{ok: 1}, nil, 0)
		res.add(rep, endToEnd)
		got := res.Workloads[w.Name]
		for _, e := range f.EndToEnd {
			if got == nil || len(got.Metrics[e.Name]) != 1 {
				t.Errorf("%s: the result lacks %s, which BENCHMARK.json lists", w.Name, e.Name)
			}
		}
	}
}
