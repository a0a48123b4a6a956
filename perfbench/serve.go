package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/logs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/synth"
)

// serveEndpoints is the request mix: every experiment the registry
// serves except table1, one demand document and one spread document.
var serveEndpoints = func() []endpoint {
	var eps []endpoint
	for i := 1; i <= 9; i++ {
		id := fmt.Sprintf("fig%d", i)
		eps = append(eps, endpoint{id, "/v1/experiments/" + id})
	}
	return append(eps,
		endpoint{"table2", "/v1/experiments/table2"},
		endpoint{"demand-yelp", "/v1/demand/yelp"},
		endpoint{"spread-restaurants-phone", "/v1/spread/restaurants/phone"})
}()

type endpoint struct{ name, path string }

// serveLayers are the serve workload's per-layer metrics.
func serveLayers() []metricDef {
	defs := []metricDef{
		{"cold_p50_ms", "ms"},
		{"cold_tail_ms", "ms"},
		{"warm_rps", "1/s"},
		{"warm_p50_us", "us"},
		{"warm_tail_us", "us"},
		{"serve.handler_warm_us", "us"},
		{"serve.not_modified_share", "ratio"},
		{"core.builds", "count"},
	}
	for _, ep := range serveEndpoints {
		defs = append(defs, metricDef{"serve.cold." + ep.name + "_ms", "ms"})
	}
	return defs
}

// clients is the closed-loop client count: each sends its next request
// when the previous reply has been read.
const clients = 2

// residentStudies bounds the server's study LRU: the seeds of a cold
// round still resident, and so warm, after it.
const residentStudies = 4

// server is an in-process serve.Server on a loopback listener.
type server struct {
	srv    *serve.Server
	base   string
	client *http.Client
	done   chan error
}

func startServer() (*server, error) {
	srv := serve.New(serve.Options{Workers: 2, Studies: residentStudies, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    srv,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}},
		done:   make(chan error, 1),
	}
	go func() { s.done <- srv.Start(ln) }()
	if rep, err := s.get("/healthz", ""); err != nil || rep.status != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("healthz: status %d, %v", rep.status, err)
	}
	return s, nil
}

// stop drains the server and waits for its serve loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

type reply struct {
	status  int
	etag    string
	hash    string // X-Config-Hash
	body    []byte
	latency time.Duration
}

// get issues one GET, conditional when etag is set, and reads the
// whole body.
func (s *server) get(path, etag string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return reply{}, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{
		status: resp.StatusCode, etag: resp.Header.Get("ETag"), hash: resp.Header.Get("X-Config-Hash"),
		body: body, latency: time.Since(t0),
	}, err
}

func studyPath(ep endpoint, seed uint64) string {
	return fmt.Sprintf("%s?scale=small&seed=%d", ep.path, seed)
}

// smallConfig is the configuration the server resolves scale=small to.
func smallConfig(seed uint64) core.Config {
	return core.Config{
		Seed: seed, Entities: synth.ScaleSmall.Entities, DirectoryHosts: synth.ScaleSmall.DirectoryHosts,
		CatalogN: synth.ScaleSmall.Entities, Workers: 2,
	}
}

// serveReference is what a direct Study computes for one seed: every
// endpoint's expected value and the build count serving it must cost.
type serveReference struct {
	study  *core.Study
	seed   uint64
	values map[string][]byte // endpoint name → experiment value or document body
	builds int
	served map[string]reply // the seed's cold replies, checked by checkServed
}

// newServeReference computes every reference value but Table 2's,
// whose seed-dependent diameter cost would make set-up time a property
// of the seed; checkServed adds it.
func newServeReference(seed uint64) (*serveReference, error) {
	st := core.NewStudy(smallConfig(seed))
	ids := slices.DeleteFunc(core.ExperimentIDs(), func(id string) bool { return id == "table2" })
	rep, err := st.RunExperiments(context.Background(), ids, 2)
	if err != nil {
		return nil, err
	}
	vals, err := wireValues(rep)
	if err != nil {
		return nil, err
	}
	ref := &serveReference{study: st, seed: seed, values: vals, served: map[string]reply{}}
	ests, err := st.Demand(logs.Yelp)
	if err != nil {
		return nil, err
	}
	if ref.values["demand-yelp"], err = json.MarshalIndent(report.NewDemandWire(logs.Yelp, ests), "", "  "); err != nil {
		return nil, err
	}
	spread, err := st.Spread(entity.Restaurants, entity.AttrPhone)
	if err != nil {
		return nil, err
	}
	if ref.values["spread-restaurants-phone"], err = json.MarshalIndent(spread, "", "  "); err != nil {
		return nil, err
	}
	b := st.BuildStats()
	ref.builds = b.Webs + b.Indexes + b.Catalogs + b.Demands + b.Graphs + b.Classifiers
	return ref, nil
}

// checkServed compares every endpoint's served body for the reference
// seed with the direct Study's value.
func (ref *serveReference) checkServed() error {
	rep, err := ref.study.RunExperiments(context.Background(), []string{"table2"}, 2)
	if err != nil {
		return err
	}
	vals, err := wireValues(rep)
	if err != nil {
		return err
	}
	ref.values["table2"] = vals["table2"]
	hash := ref.study.Config().Hash()
	for _, ep := range serveEndpoints {
		rep, ok := ref.served[ep.name]
		if !ok {
			return fmt.Errorf("%s: no reply for seed %d", ep.name, ref.seed)
		}
		if rep.hash != hash {
			return fmt.Errorf("%s: config hash %s, want %s", ep.name, rep.hash, hash)
		}
		got := rep.body
		if strings.HasPrefix(ep.path, "/v1/experiments/") {
			var env report.Envelope
			if err := json.Unmarshal(rep.body, &env); err != nil || len(env.Results) != 1 {
				return fmt.Errorf("%s: bad envelope (%v)", ep.name, err)
			}
			var buf bytes.Buffer
			if err := json.Compact(&buf, env.Results[0].Value); err != nil {
				return err
			}
			got = buf.Bytes()
		}
		if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(ref.values[ep.name])) {
			return fmt.Errorf("%s: served value differs from a direct Study's", ep.name)
		}
	}
	return nil
}

// tally counts requests and failures across client goroutines.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	notModified       int
	latencies         []float64 // seconds
}

// add counts one request; it fails unless its status is want.
func (t *tally) add(rep reply, err error, want int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil || rep.status != want {
		t.failed++
		return false
	}
	if rep.status == http.StatusNotModified {
		t.notModified++
	}
	t.latencies = append(t.latencies, rep.latency.Seconds())
	return true
}

func (r *run) absorb(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
}

// closedLoop runs clients goroutines that each take the next job index
// until next reports false.
func closedLoop(work func(client, job int) bool) {
	var mu sync.Mutex
	job := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				j := job
				job++
				mu.Unlock()
				if !work(c, j) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// warmKey is a resident (seed, endpoint) with its ETag.
type warmKey struct {
	path, etag string
}

// coldRound requests every endpoint once for each seed (seed-major),
// so every request triggers a build; it returns its wall and CPU time
// and the keys of the seeds still resident in the study LRU afterwards.
func coldRound(s *server, seeds []uint64, ref *serveReference, t *tally, tr *tracer) (step, []warmKey) {
	keys := make([]warmKey, len(seeds)*len(serveEndpoints))
	var mu sync.Mutex
	runtime.GC()
	t0, c0 := time.Now(), cpuNow()
	closedLoop(func(c, j int) bool {
		if j >= len(keys) {
			return false
		}
		seed, ep := seeds[j/len(serveEndpoints)], serveEndpoints[j%len(serveEndpoints)]
		path := studyPath(ep, seed)
		id := tr.begin("serve.cold/"+ep.name, -1, c)
		rep, err := s.get(path, "")
		tr.end(id)
		if t.add(rep, err, http.StatusOK) {
			keys[j] = warmKey{path, rep.etag}
			if ref != nil && seed == ref.seed {
				mu.Lock()
				ref.served[ep.name] = rep
				mu.Unlock()
			}
		}
		return true
	})
	st := step{time.Since(t0), cpuNow() - c0}
	resident := min(len(seeds), residentStudies)
	return st, keys[len(keys)-resident*len(serveEndpoints):]
}

// warmPhase sends requests for resident keys for d, alternating plain
// GETs (200 from the body cache) and If-None-Match GETs (304). It starts
// after a collection, so that the garbage of the cold builds before it
// is not collected inside it.
func warmPhase(s *server, keys []warmKey, d time.Duration, t *tally) step {
	runtime.GC()
	t0, c0 := time.Now(), cpuNow()
	deadline := t0.Add(d)
	closedLoop(func(c, j int) bool {
		if time.Now().After(deadline) {
			return false
		}
		k := keys[(j/2)%len(keys)]
		if j%2 == 0 {
			rep, err := s.get(k.path, "")
			t.add(rep, err, http.StatusOK)
		} else {
			rep, err := s.get(k.path, k.etag)
			t.add(rep, err, http.StatusNotModified)
		}
		return true
	})
	return step{time.Since(t0), cpuNow() - c0}
}

// checkBuilds asks /v1/stats for the resident studies' build counters:
// each must have built every artifact exactly once (singleflight under
// concurrent clients). It returns the total.
func checkBuilds(s *server, ref *serveReference) (int, error) {
	rep, err := s.get("/v1/stats", "")
	if err != nil {
		return 0, err
	}
	var st serve.StatsWire
	if err := json.Unmarshal(rep.body, &st); err != nil {
		return 0, err
	}
	total := 0
	for _, study := range st.Studies {
		b := study.Builds
		n := b.Webs + b.Indexes + b.Catalogs + b.Demands + b.Graphs + b.Classifiers
		if n != ref.builds {
			return 0, fmt.Errorf("study seed %d: %d builds, want %d", study.Seed, n, ref.builds)
		}
		total += n
	}
	return total, nil
}

func (r *run) roundSeeds(round int) []uint64 {
	seeds := make([]uint64, r.size.coldSeeds)
	for i := range seeds {
		seeds[i] = subSeed(r.seed, round*len(seeds)+i)
	}
	return seeds
}

// scaled returns xs multiplied by f, e.g. seconds to milliseconds.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// runServe alternates cold rounds (coldSeeds fresh seeds, every
// endpoint once each) with warm phases on the resident seeds, after one
// such round untimed to warm the server. job_cpu_s is the trimmed mean
// CPU time of a cold round; items_per_cpu_s is the trimmed mean of a
// warm phase's requests per CPU second. Client and server share the
// process, so both sides' CPU counts.
func runServe(r *run) error {
	var s *server
	var ref *serveReference
	err := r.setups(func() (func(), error) {
		var err error
		if s, err = startServer(); err != nil {
			return nil, err
		}
		srv := s
		ref, err = newServeReference(subSeed(r.seed, 0))
		return func() { srv.stop() }, err
	})
	if err != nil {
		return err
	}
	defer s.stop()
	if r.traced {
		return serveTraced(r, s, ref)
	}

	n, rounds := r.count(r.size.serveRounds), 0
	// Warm-up: one round on seeds past the timed ones, so that the first
	// timed round does not pay for growing the heap.
	warmup := &tally{}
	_, keys := coldRound(s, r.roundSeeds(n), nil, warmup, nil)
	warmPhase(s, keys, r.size.warmFor, warmup)
	r.absorb(warmup)

	cold, warm := &tally{}, &tally{}
	var spent, warmTime time.Duration
	var coldWalls, coldCPUs, warmRates []float64
	for ; r.more(rounds, n, spent); rounds++ {
		c, keys := coldRound(s, r.roundSeeds(rounds), ref, cold, nil)
		if _, err := checkBuilds(s, ref); err != nil {
			return err
		}
		before := len(warm.latencies)
		w := warmPhase(s, keys, r.size.warmFor, warm)
		requests := len(warm.latencies) - before
		spent += c.wall + w.wall
		warmTime += w.wall
		coldWalls = append(coldWalls, c.wall.Seconds())
		coldCPUs = append(coldCPUs, c.cpu.Seconds())
		warmRates = append(warmRates, float64(requests)/w.cpu.Seconds())
		r.logf("round %d: cold wall %.3fs, cpu %.3fs; warm %d requests in wall %.3fs, cpu %.3fs",
			rounds, c.wall.Seconds(), c.cpu.Seconds(), requests, w.wall.Seconds(), w.cpu.Seconds())
	}
	r.absorb(cold)
	r.absorb(warm)
	if r.failed > 0 {
		return nil // execute reports the failures
	}
	if err := ref.checkServed(); err != nil {
		return err
	}
	coldMS, warmUS := scaled(cold.latencies, 1e3), scaled(warm.latencies, 1e6)
	ct, cl := tail(coldMS)
	wt, wl := tail(warmUS)
	r.logf("cold: p50 %.2fms, %s %.2fms; warm: p50 %.1fus, %s %.1fus, %.0f req/s",
		median(coldMS), cl, ct, median(warmUS), wl, wt, float64(len(warmUS))/warmTime.Seconds())
	r.set("peak_rss_mb", peakRSSMB())
	r.logf("cold round wall trimmed mean %.3fs", trimmedMean(coldWalls))
	r.set("job_cpu_s", trimmedMean(coldCPUs))
	r.set("items_per_cpu_s", trimmedMean(warmRates))
	return nil
}

// serveTraced measures one cold round untraced and, on a fresh server,
// the same round traced; then each endpoint's serial first hit on
// fresh seeds, and the in-process handler on a warm key.
func serveTraced(r *run, s *server, ref *serveReference) error {
	seeds := r.roundSeeds(0)
	cold, warm := &tally{}, &tally{}
	plain, keys := coldRound(s, seeds, ref, cold, nil)
	builds, err := checkBuilds(s, ref)
	if err != nil {
		return err
	}
	warmTime := warmPhase(s, keys, r.size.warmFor, warm).wall

	// In-process handler on a warm key: no transport.
	h := s.srv.Handler()
	req := httptest.NewRequest(http.MethodGet, keys[len(keys)-1].path, nil)
	var perCall []float64
	for b := 0; b < 20; b++ {
		const calls = 200
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process warm request: status %d", rec.Code)
			}
		}
		perCall = append(perCall, time.Since(t0).Seconds()/calls)
	}

	fresh, err := startServer()
	if err != nil {
		return err
	}
	defer fresh.stop()
	tr := newTracer()
	tracedCold := &tally{}
	traced, _ := coldRound(fresh, seeds, nil, tracedCold, tr)

	// Serial first hits, each endpoint on its own fresh seeds.
	serial := &tally{}
	next := len(seeds) * 2
	for _, ep := range serveEndpoints {
		var hits []float64
		for k := 0; k < r.size.coldRepeats; k++ {
			seed := subSeed(r.seed, next)
			next++
			id := tr.begin("serve.cold_serial/"+ep.name, -1, 0)
			rep, err := fresh.get(studyPath(ep, seed), "")
			tr.end(id)
			if serial.add(rep, err, http.StatusOK) {
				hits = append(hits, rep.latency.Seconds()*1e3)
			}
		}
		if len(hits) > 0 {
			r.set("serve.cold."+ep.name+"_ms", median(hits))
		}
	}
	for _, t := range []*tally{cold, warm, tracedCold, serial} {
		r.absorb(t)
	}
	if r.failed > 0 {
		return nil
	}
	if err := ref.checkServed(); err != nil {
		return err
	}

	coldMS, warmUS := scaled(cold.latencies, 1e3), scaled(warm.latencies, 1e6)
	ct, cl := tail(coldMS)
	wt, wl := tail(warmUS)
	r.logf("cold tail is %s; warm tail is %s", cl, wl)
	r.set("cold_p50_ms", median(coldMS))
	r.set("cold_tail_ms", ct)
	r.set("warm_rps", float64(len(warmUS))/warmTime.Seconds())
	r.set("warm_p50_us", median(warmUS))
	r.set("warm_tail_us", wt)
	r.set("serve.handler_warm_us", median(perCall)*1e6)
	r.set("serve.not_modified_share", float64(warm.notModified)/float64(len(warmUS)))
	r.set("core.builds", float64(builds))
	r.set("trace.overhead_s", (traced.wall - plain.wall).Seconds())
	return tr.writeChrome(r.tracePath("serve"))
}
