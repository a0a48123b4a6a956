package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/graph"
	"repro/internal/logs"
	"repro/internal/report"
)

// runReproduce measures full reproductions: each operation is
// RunAll(ctx, 2) over a fresh Study on the next input seed. A Study's
// Table 2 cost depends on its seed (which phone graphs fall into the
// slow iFUB fringe), so job_cpu_s is the trimmed mean over the seeds of
// the run. items_per_cpu_s is experiments per CPU second of RunAll, which
// is 11/job_cpu_s: every workload must report it, and RunAll has no other
// item count.
func runReproduce(r *run) error {
	ctx := context.Background()
	// Set-up: a small reproduction at the workload seed warms code
	// paths and the heap. It leaves out Table 2, whose seed-dependent
	// diameter cost would make set-up time a property of the seed. Its
	// values also serve the determinism check below: equal across
	// set-ups and equal to a serial run.
	warm := r.size.warmup
	warm.Seed = r.seed
	warmIDs := slices.DeleteFunc(core.ExperimentIDs(), func(id string) bool { return id == "table2" })
	var warmValues map[string][]byte
	err := r.setups(func() (func(), error) {
		rep, err := core.NewStudy(warm).RunExperiments(ctx, warmIDs, 2)
		if err := r.checkReport(rep, err, warmIDs); err != nil {
			return nil, err
		}
		vals, err := wireValues(rep)
		if err != nil {
			return nil, err
		}
		if warmValues != nil {
			if err := sameValues(warmValues, vals); err != nil {
				return nil, fmt.Errorf("repeated small reproduction: %w", err)
			}
		}
		warmValues = vals
		return nil, nil
	})
	if err != nil {
		return err
	}
	if r.traced {
		return reproduceTraced(r)
	}

	ids := core.ExperimentIDs()
	var walls, cpus []float64
	var spent time.Duration
	n := r.count(r.size.reproduceRuns)
	for i := 0; r.more(i, n, spent); i++ {
		cfg := r.size.study
		cfg.Seed = subSeed(r.seed, i)
		runtime.GC()
		var rep *core.RunReport
		st, err := timeStep(func() (err error) {
			rep, err = core.NewStudy(cfg).RunAll(ctx, 2)
			return err
		})
		if err := r.checkReport(rep, err, ids); err != nil {
			return fmt.Errorf("seed %d: %w", cfg.Seed, err)
		}
		spent += st.wall
		walls = append(walls, st.wall.Seconds())
		cpus = append(cpus, st.cpu.Seconds())
		r.logf("RunAll seed=%d wall=%.3fs cpu=%.3fs table2=%.3fs", cfg.Seed, st.wall.Seconds(), st.cpu.Seconds(), resultElapsed(rep, "table2").Seconds())
	}

	rep, err := core.NewStudy(warm).RunExperiments(ctx, warmIDs, 1)
	if err := r.checkReport(rep, err, warmIDs); err != nil {
		return fmt.Errorf("serial small reproduction: %w", err)
	}
	vals, err := wireValues(rep)
	if err != nil {
		return err
	}
	if err := sameValues(warmValues, vals); err != nil {
		return fmt.Errorf("serial vs parallel small reproduction: %w", err)
	}

	r.set("peak_rss_mb", peakRSSMB())
	r.set("job_cpu_s", trimmedMean(cpus))
	r.set("items_per_cpu_s", float64(len(ids))/trimmedMean(cpus))
	r.logf("RunAll over %d seeds: wall trimmed mean %.3fs, min %.3fs, max %.3fs",
		len(walls), trimmedMean(walls), quantile(walls, 0), quantile(walls, 1))
	return nil
}

// checkReport counts a run's experiments and checks that each of ids
// is present, in order, without error.
func (r *run) checkReport(rep *core.RunReport, err error, ids []string) error {
	r.attempted += len(ids)
	if rep == nil {
		r.failed += len(ids)
		return err
	}
	for _, res := range rep.Results {
		if res.Err != nil {
			r.failed++
		}
	}
	if err != nil {
		return err
	}
	if len(rep.Results) != len(ids) {
		return fmt.Errorf("%d results for %d experiments", len(rep.Results), len(ids))
	}
	for i, res := range rep.Results {
		if res.ID != ids[i] || res.Value == nil {
			return fmt.Errorf("result %d: id %q, value present %t; want %q with a value", i, res.ID, res.Value != nil, ids[i])
		}
	}
	return nil
}

// wireValues encodes each result of a report as the wire value the
// serve tier and analyze -json emit.
func wireValues(rep *core.RunReport) (map[string][]byte, error) {
	out := make(map[string][]byte, len(rep.Results))
	for _, res := range rep.Results {
		w, err := report.EncodeResult(res)
		if err != nil {
			return nil, err
		}
		out[res.ID] = w.Value
	}
	return out, nil
}

// sameValues reports the first experiment whose wire value differs.
func sameValues(want, got map[string][]byte) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for id := range want {
		if !bytes.Equal(want[id], got[id]) {
			return fmt.Errorf("experiment %s: wire values differ", id)
		}
	}
	return nil
}

func resultElapsed(rep *core.RunReport, id string) time.Duration {
	for _, res := range rep.Results {
		if res.ID == id {
			return res.Elapsed
		}
	}
	return 0
}

// pair is one entity–site graph of Table 2 and Figure 9.
type pair struct {
	d entity.Domain
	a entity.Attr
}

func (p pair) String() string { return string(p.a) + "/" + string(p.d) }

// table2Order and fig9Order list the graphs in the row order of the
// core.Study's Table2 and Fig9 results.
func table2Order() []pair {
	out := []pair{{entity.Books, entity.AttrISBN}}
	for _, a := range []entity.Attr{entity.AttrPhone, entity.AttrHomepage} {
		for _, d := range entity.LocalBusinessDomains {
			out = append(out, pair{d, a})
		}
	}
	return out
}

func fig9Order() []pair {
	t := table2Order()
	return append(t[1:], t[0])
}

// reproduceLayers are the spans a traced reproduction sums per layer.
var reproduceLayers = []string{
	"synth.generate", "index.build", "graph.build", "graph.diameter", "graph.robustness",
	"coverage.spread", "coverage.setcover", "demand.catalog", "demand.pipeline",
	"demand.analysis", "report.encode",
}

// layerPass is one serial, layer-by-layer reproduction.
type layerPass struct {
	values          map[string][]byte
	wall            time.Duration
	postings, nodes int
	diameters       []graphTiming
}

type graphTiming struct {
	g        pair
	diameter int
	elapsed  time.Duration
}

// reproduceByLayer rebuilds every experiment's value from the Study's
// public methods one layer at a time (each layer with the layers below
// it already warm), spanning each call on tr (nil: untraced).
func reproduceByLayer(s *core.Study, tr *tracer) (*layerPass, error) {
	p := &layerPass{values: map[string][]byte{}}
	t0 := time.Now()
	root := tr.begin("reproduce", -1, 0)
	values := map[string]any{"table1": s.Table1()}

	call := func(layer string, f func() error) error {
		id := tr.begin(layer, root, 0)
		err := f()
		tr.end(id)
		return err
	}
	for _, d := range entity.AllDomains {
		if err := call("synth.generate", func() error { _, err := s.Web(d); return err }); err != nil {
			return nil, err
		}
	}
	for _, d := range entity.AllDomains {
		err := call("index.build", func() error {
			idxs, err := s.Indexes(d)
			for _, idx := range idxs {
				p.postings += idx.TotalPostings()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	graphs := map[pair]*graph.Bipartite{}
	for _, g := range table2Order() {
		err := call("graph.build", func() error {
			b, err := s.Graph(g.d, g.a)
			if err == nil {
				graphs[g] = b
				p.nodes += b.NumNodes()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	var rows []core.Table2Row
	for _, g := range table2Order() {
		id := tr.begin("graph.diameter", root, 0)
		m := graphs[g].ComputeMetrics()
		p.diameters = append(p.diameters, graphTiming{g, m.Diameter, tr.end(id)})
		rows = append(rows, core.Table2Row{Domain: g.d, Attr: g.a, Metrics: m})
	}
	values["table2"] = rows
	var curves []*core.Fig9Result
	for _, g := range fig9Order() {
		id := tr.begin("graph.robustness", root, 0)
		curves = append(curves, &core.Fig9Result{Domain: g.d, Attr: g.a, Curve: graphs[g].RobustnessCurve(core.Fig9MaxK)})
		tr.end(id)
	}
	values["fig9"] = curves

	for _, site := range logs.Sites {
		if err := call("demand.catalog", func() error { _, err := s.Catalog(site); return err }); err != nil {
			return nil, err
		}
	}
	for _, site := range logs.Sites {
		if err := call("demand.pipeline", func() error { _, err := s.Demand(site); return err }); err != nil {
			return nil, err
		}
	}
	experiments := []struct {
		layer, id string
		run       func() (any, error)
	}{
		{"coverage.spread", "fig1", func() (any, error) { return s.Fig1() }},
		{"coverage.spread", "fig2", func() (any, error) { return s.Fig2() }},
		{"coverage.spread", "fig3", func() (any, error) { return s.Fig3() }},
		{"coverage.spread", "fig4", func() (any, error) { return s.Fig4() }},
		{"coverage.setcover", "fig5", func() (any, error) { return s.Fig5() }},
		{"demand.analysis", "fig6", func() (any, error) { return s.Fig6() }},
		{"demand.analysis", "fig7", func() (any, error) { return s.Fig7() }},
		{"demand.analysis", "fig8", func() (any, error) { return s.Fig8() }},
	}
	for _, e := range experiments {
		if err := call(e.layer, func() error { v, err := e.run(); values[e.id] = v; return err }); err != nil {
			return nil, fmt.Errorf("%s: %w", e.id, err)
		}
	}

	for _, id := range core.ExperimentIDs() {
		err := call("report.encode", func() error {
			w, err := report.EncodeResult(core.RunResult{ID: id, Value: values[id]})
			p.values[id] = w.Value
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	tr.end(root)
	p.wall = time.Since(t0)
	return p, nil
}

// reproduceTraced runs the first input seed three ways: RunAll(ctx, 2)
// untraced (the reference values and the pool's longest task), then the
// serial layer-by-layer pass untraced and traced. The two serial walls
// give the tracing overhead.
func reproduceTraced(r *run) error {
	cfg := r.size.study
	cfg.Seed = subSeed(r.seed, 0)
	t0 := time.Now()
	rep, err := core.NewStudy(cfg).RunAll(context.Background(), 2)
	wall := time.Since(t0)
	if err := r.checkReport(rep, err, core.ExperimentIDs()); err != nil {
		return err
	}
	want, err := wireValues(rep)
	if err != nil {
		return err
	}
	var longest time.Duration
	for _, a := range rep.Artifacts {
		longest = max(longest, a.Elapsed)
	}
	for _, res := range rep.Results {
		longest = max(longest, res.Elapsed)
	}

	plain, err := reproduceByLayer(core.NewStudy(cfg), nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := reproduceByLayer(core.NewStudy(cfg), tr)
	if err != nil {
		return err
	}
	for _, p := range []*layerPass{plain, traced} {
		if err := sameValues(want, p.values); err != nil {
			return fmt.Errorf("layer-by-layer vs RunAll: %w", err)
		}
	}

	r.logf("seed %d: RunAll(ctx, 2) %.3fs; serial by layer %.3fs untraced, %.3fs traced",
		cfg.Seed, wall.Seconds(), plain.wall.Seconds(), traced.wall.Seconds())
	r.set("reproduce_s", wall.Seconds())
	r.set("core.longest_task_s", longest.Seconds())
	r.set("trace.overhead_s", (traced.wall - plain.wall).Seconds())
	var attributed time.Duration
	for _, layer := range reproduceLayers {
		d := tr.total(layer)
		attributed += d
		r.set(layer+"_s", d.Seconds())
	}
	r.set("graph.diameter_max_s", tr.longest("graph.diameter").Seconds())
	r.set("index.postings", float64(traced.postings))
	r.set("graph.nodes", float64(traced.nodes))
	r.set("reproduce.unattributed_share", float64(traced.wall-attributed)/float64(traced.wall))
	for _, g := range traced.diameters {
		r.logf("graph.diameter_s[%s] = %.4f (diameter %d)", g.g, g.elapsed.Seconds(), g.diameter)
	}
	return tr.writeChrome(r.tracePath("reproduce"))
}
