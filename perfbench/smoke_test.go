package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

// smokeScale runs every workload path in seconds. The serve workload
// keeps the server's own small scale.
var smokeScale = scale{
	study:       core.Config{Entities: 300, DirectoryHosts: 450, CatalogN: 300, EventsPerSource: 6000},
	warmup:      core.Config{Entities: 200, DirectoryHosts: 300, CatalogN: 200, EventsPerSource: 4000},
	crawl:       core.Config{Entities: 200, DirectoryHosts: 300},
	catalogN:    500,
	clicks:      20000,
	segRows:     1000,
	coldSeeds:   2,
	warmFor:     100 * time.Millisecond,
	coldRepeats: 1,
}

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i, m := range file {
			if m.Name != prog[i].name || m.Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, m.Name, m.Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs each workload untraced and traced at smoke scale: its
// correctness checks must pass and every named metric must be printed.
// execute fails a run that leaves one of its own metrics unset; here
// each end-to-end metric and each of the workload's own layers but
// trace.overhead_s, which may read 0 or less, must also be positive.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				r := &run{out: io.Discard, seed: 7, budget: time.Millisecond, traced: traced, dir: t.TempDir(), traceDir: t.TempDir(), size: smokeScale}
				if testing.Verbose() {
					r.out = os.Stdout
				}
				res, err := execute(r, w.name)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result: correct %t, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want, own := b.EndToEnd, endToEnd
				if traced {
					want, own = b.PerLayer, w.layers
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %s, want %s", m.Name, got.Unit, m.Unit)
					}
				}
				for _, m := range own {
					if v := res.Metrics[m.name].Value; !(v > 0) {
						t.Errorf("metric %s of %s = %v, want > 0", m.name, w.name, v)
					}
				}
			})
		}
	}
}
