// Command perfbench is the repository's benchmark. It drives the
// reproduction's layers from outside, through their public functions,
// under one of three workloads:
//
//   - reproduce: core.Study.RunAll over every table and figure;
//   - ingest: the crawl (WARC write, then extraction) and the click log
//     (segment write, then replay into the sharded aggregator);
//   - serve: an in-process serve.Server on a loopback listener under
//     two closed-loop clients, cold builds then warm hits.
//
// Every run checks the workload's outputs. An untraced run (-trace 0)
// prints the end-to-end metrics; a traced run (-trace 1) records spans
// around each layer call, writes them as Chrome trace-event JSON and
// prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. When
// a check fails the program prints correct=false with no metrics and
// exits 1. See README.md for the metric definitions and baselines.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
)

// scale sizes the workloads. fullScale is what the benchmark measures;
// the smoke test runs a tiny one.
type scale struct {
	study  core.Config // reproduce: the study of one RunAll (Seed set per run)
	warmup core.Config // reproduce: the small study of each set-up

	crawl     core.Config // ingest: Entities and DirectoryHosts of the restaurants web
	catalogN  int         // ingest: yelp catalog size
	clicks    int         // ingest: click-log events per source
	segRows   int         // ingest: refs per segment (0: the seg default)
	coldSeeds int         // serve: fresh seeds per cold round
	warmFor   time.Duration
	// coldRepeats is how many fresh seeds the traced serve run gives
	// each endpoint's serial cold hit.
	coldRepeats int

	// Operations of an untraced run of refSeconds: RunAll seeds, ingest
	// passes, serve rounds. See (*run).count.
	reproduceRuns, ingestPasses, serveRounds int
}

// refSeconds is the measurement time the operation counts of a scale
// are sized for. On a quiet 2-vCPU host they take 22–30 s of it, which leaves
// some room for a slower host before (*run).more cuts a run short.
const refSeconds = 30

var fullScale = scale{
	study:         core.Config{Entities: 4000, DirectoryHosts: 6000, CatalogN: 5000, EventsPerSource: 100000},
	warmup:        core.Config{Entities: 2000, DirectoryHosts: 3000, CatalogN: 2000},
	crawl:         core.Config{Entities: 120, DirectoryHosts: 180},
	catalogN:      30000,
	clicks:        2_000_000,
	coldSeeds:     4,
	warmFor:       1500 * time.Millisecond,
	coldRepeats:   2,
	reproduceRuns: 15,
	ingestPasses:  10,
	serveRounds:   8,
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports
// each of them, measured on its own job (see README.md). Times are the
// process's CPU time, user plus system: unlike wall time, it does not
// grow with the time a shared host's other tenants take from it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_cpu_s", "s"},
	{"items_per_cpu_s", "1/s"},
}

// traceOverhead is the per-layer metric every traced run sets: its
// traced pass's wall minus the same pass untraced.
var traceOverhead = metricDef{"trace.overhead_s", "s"}

// workload is one of the benchmark's workloads.
type workload struct {
	name string
	run  func(*run) error
	// layers are the per-layer metrics its traced run must set, besides
	// traceOverhead.
	layers []metricDef
}

var workloads = []workload{
	{"reproduce", runReproduce, []metricDef{
		{"reproduce_s", "s"},
		{"core.longest_task_s", "s"},
		{"synth.generate_s", "s"},
		{"index.build_s", "s"},
		{"index.postings", "count"},
		{"graph.build_s", "s"},
		{"graph.nodes", "count"},
		{"graph.diameter_s", "s"},
		{"graph.diameter_max_s", "s"},
		{"graph.robustness_s", "s"},
		{"coverage.spread_s", "s"},
		{"coverage.setcover_s", "s"},
		{"demand.catalog_s", "s"},
		{"demand.pipeline_s", "s"},
		{"demand.analysis_s", "s"},
		{"report.encode_s", "s"},
		{"reproduce.unattributed_share", "ratio"},
	}},
	{"ingest", runIngest, []metricDef{
		{"crawl_pages_per_s", "1/s"},
		{"clicklog_gen_clicks_per_s", "1/s"},
		{"clicklog_agg_clicks_per_s", "1/s"},
		{"warc.write_s", "s"},
		{"warc.bytes", "bytes"},
		{"extract.warc_s", "s"},
		{"extract.pages", "count"},
		{"demand.generate_s", "s"},
		{"seg.write_s", "s"},
		{"seg.bytes_per_click", "bytes"},
		{"seg.replay_decode_s", "s"},
		{"seg.replay_s", "s"},
		{"seg.replay_pushdown_s", "s"},
		{"seg.skipped_segments", "count"},
		{"seg.matched_over_scanned", "ratio"},
	}},
	{"serve", runServe, serveLayers()},
}

// perLayer lists the metrics of a traced run: traceOverhead, then every
// workload's layers. A traced run reports all of them; the layers of the
// other workloads, which do no work on it, read 0.
var perLayer []metricDef

func init() {
	perLayer = []metricDef{traceOverhead}
	for _, w := range workloads {
		perLayer = append(perLayer, w.layers...)
	}
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark run: its parameters, operation
// counts and metrics.
type run struct {
	out      io.Writer // human-readable report lines
	seed     uint64
	budget   time.Duration // measurement time
	traced   bool
	dir      string // scratch space for temp inputs, removed after the run
	traceDir string // directory for the traced run's Chrome trace file
	size     scale

	attempted, failed int
	defs              []metricDef // the metrics this run must set
	metrics           map[string]metric
}

// set records metric name, which must be one the run must set.
func (r *run) set(name string, v float64) {
	i := slices.IndexFunc(r.defs, func(d metricDef) bool { return d.name == name })
	if i < 0 {
		panic("perfbench: metric " + name + " is not in the table of this run")
	}
	r.metrics[name] = metric{Value: v, Unit: r.defs[i].unit}
	fmt.Fprintf(r.out, "%-40s %14.6g %s\n", name, v, r.defs[i].unit)
}

// count scales an operation count of a refSeconds run to the run's
// measurement time, at least one. It depends on --seconds only, not on
// how fast the operations run, so equal seeds give equal inputs.
func (r *run) count(perRef int) int {
	return max(1, int(math.Round(float64(perRef)*r.budget.Seconds()/refSeconds)))
}

// overrun is how far past its measurement time a run may go.
const overrun = 1.25

// more reports whether operation i of n runs, after spent measured time
// on the first i. The count alone decides unless the host is well slower
// than the one the counts are sized for: then a run stops once the next
// operation, at the mean so far, would end past overrun times its
// measurement time, so that it keeps to its time limits. It logs that it
// covered fewer inputs.
func (r *run) more(i, n int, spent time.Duration) bool {
	if i >= n {
		return false
	}
	if i > 0 && spent+spent/time.Duration(i) > time.Duration(overrun*float64(r.budget)) {
		r.logf("stopped after %d of %d operations: the measurement time ran over", i, n)
		return false
	}
	return true
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// execute runs one workload and returns its result line. The error is
// a failed check, a failed operation or a metric the workload did not
// set; the result then reports no metrics.
func execute(r *run, name string) (result, error) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return result{}, fmt.Errorf("unknown workload %q (reproduce, ingest, serve)", name)
	}
	w := workloads[i]
	r.defs = endToEnd
	if r.traced {
		r.defs = append([]metricDef{traceOverhead}, w.layers...)
	}
	r.metrics = map[string]metric{}
	err := w.run(r)
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("%d of %d operations failed", r.failed, r.attempted)
	}
	for _, d := range r.defs {
		if _, ok := r.metrics[d.name]; !ok && err == nil {
			err = fmt.Errorf("workload %s did not set metric %s", name, d.name)
		}
	}
	if err != nil {
		return result{Correct: false, Attempted: max(r.attempted, 1), Failed: max(r.failed, 1), Metrics: map[string]metric{}}, err
	}
	if r.traced {
		for _, d := range perLayer {
			if _, ok := r.metrics[d.name]; !ok {
				r.metrics[d.name] = metric{Value: 0, Unit: d.unit}
			}
		}
	}
	return result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}

func main() {
	name := flag.String("workload", "", "workload: reproduce, ingest or serve")
	seed := flag.Uint64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := flag.Int("seconds", 30, "measurement time of the run, in seconds; sets its operation counts")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for temp inputs and trace files")
	flag.Parse()

	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		out:      os.Stdout,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		dir:      scratch,
		traceDir: *dir,
		size:     fullScale,
	}
	res, err := execute(r, *name)
	os.RemoveAll(scratch)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// tracePath is where a traced run writes its Chrome trace-event JSON.
func (r *run) tracePath(workload string) string {
	return filepath.Join(r.traceDir, fmt.Sprintf("trace-%s-%d.json", workload, r.seed))
}
