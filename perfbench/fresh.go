package main

// The freshness workload: rounds of append → Step → reload → first answer
// from the new model, while one closed-loop reader queries /v1/topk.

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/core"
	"inf2vec/internal/embed"
	"inf2vec/internal/eval"
	"inf2vec/internal/graph"
	"inf2vec/internal/obs"
	"inf2vec/internal/pipeline"
	"inf2vec/internal/serve"
)

const (
	setupRepsFresh = 31
	// warmRounds run before timing: the first round after a restart
	// regenerates the whole corpus because the corpus cache starts empty.
	warmRounds = 1
	// minRounds is the fewest measured rounds a run makes, however short
	// its window.
	minRounds = 5
)

// freshInputs is the freshness dataset, parsed before any clock starts.
type freshInputs struct {
	dir     string
	graph   *graph.Graph
	test    *actionlog.Log
	sources []int32
	// batches[r] is the action-log text appended in round r: one stream
	// episode under its own item id, which sorts among the ids already in
	// the log. Once every stream episode has been appended, later rounds
	// append them again relabelled above every existing id.
	batches [][]byte
	// probes[r] is a pair involving a user of batch r.
	probes []pair
}

func loadFreshInputs(dirs inputDirs, rounds int) (*freshInputs, error) {
	dir := dirs.data
	in := &freshInputs{dir: dir}
	var err error
	if in.graph, err = readGraph(filepath.Join(dir, "graph.tsv")); err != nil {
		return nil, err
	}
	n := in.graph.NumNodes()
	if in.test, err = readLog(filepath.Join(dir, "heldout.tsv"), n); err != nil {
		return nil, err
	}
	if in.sources, err = readUsers(filepath.Join(dirs.reqs, "topk.tsv")); err != nil {
		return nil, err
	}
	stream, err := readLog(filepath.Join(dir, "stream.tsv"), n)
	if err != nil {
		return nil, err
	}
	initial, err := readLog(filepath.Join(dir, "actions.tsv"), n)
	if err != nil {
		return nil, err
	}
	item := int32(0)
	for _, l := range []*actionlog.Log{initial, stream, in.test} {
		for i := 0; i < l.NumEpisodes(); i++ {
			item = max(item, l.Episode(i).Item+1)
		}
	}
	var eps []*actionlog.Episode
	for i := 0; i < stream.NumEpisodes(); i++ {
		if ep := stream.Episode(i); ep.Len() >= 2 {
			eps = append(eps, ep)
		}
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("stream split has no episode with two adopters")
	}
	for r := 0; r < rounds; r++ {
		ep := eps[r%len(eps)]
		id := ep.Item
		if r >= len(eps) {
			id = item + int32(r)
		}
		var b strings.Builder
		for _, rec := range ep.Records {
			fmt.Fprintf(&b, "%d\t%d\t%g\n", rec.User, id, rec.Time)
		}
		in.batches = append(in.batches, []byte(b.String()))
		in.probes = append(in.probes, pair{ep.Records[0].User, ep.Records[1].User})
	}
	return in, nil
}

// daemon is the in-process pipeline daemon: cmd/pipeline -serve-addr with
// the top-k index in ivf mode.
type daemon struct {
	p  *pipeline.Pipeline
	ls *liveServer

	// step is the traced pass's span of the Step in progress, the parent
	// of the reload span Notify records.
	step *span

	mu      sync.Mutex
	reloads []time.Duration
	events  []core.Event
}

// startDaemon times one daemon restart over the state directory: pipeline
// recovery plus server start up to the first answer.
func startDaemon(r *run, in *freshInputs, state string, logger *slog.Logger, first op) (*daemon, float64, float64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	g, err := readGraph(filepath.Join(in.dir, "graph.tsv"))
	if err != nil {
		return nil, 0, 0, err
	}
	cfg := serveConfig(filepath.Join(state, "model.i2v"), "", "fp32", serve.TopKIndexIVF, logger)
	s, err := serve.New(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	d := &daemon{}
	pcfg := freshPipelineConfig(state, g, r.seed, logger, s.Tracer(), s.Metrics())
	pcfg.Notify = func(context.Context) error {
		t := time.Now()
		sp := r.rec.start("serve.reload", d.step, 0)
		err := s.Reload()
		sp.end()
		d.mu.Lock()
		d.reloads = append(d.reloads, time.Since(t))
		d.mu.Unlock()
		return err
	}
	pcfg.Train.Telemetry = func(e core.Event) {
		d.mu.Lock()
		d.events = append(d.events, e)
		d.mu.Unlock()
	}
	if d.p, err = pipeline.New(pcfg); err != nil {
		return nil, 0, 0, err
	}
	if d.ls, err = start(s); err != nil {
		return nil, 0, 0, err
	}
	cs := newClients(d.ls.base, 1)
	status, err := cs[0].do(first.method, first.path, nil)
	setup := time.Since(t0).Seconds()
	closeClients(cs)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first answer: HTTP %d", status)
	}
	if err != nil {
		d.ls.stop()
		return nil, 0, 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return d, setup, (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / 1e6, nil
}

// roundStats is what one measured round observed.
type roundStats struct {
	fresh  time.Duration
	trace  *obs.TraceRecord // the round's pipeline_step trace
	events []core.Event
	reload time.Duration
}

func measureFreshness(r *run, dirs inputDirs) error {
	// Rounds take about a second; 4× the window in batches is never used up.
	in, err := loadFreshInputs(dirs, 4*int(r.window.Seconds())+warmRounds+minRounds)
	if err != nil {
		return err
	}
	state := filepath.Join(r.scratch, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	for _, f := range []string{"actions.tsv", "actions.tsv.offset", "model.i2v"} {
		if err := copyFile(filepath.Join(in.dir, "state", f), filepath.Join(state, f)); err != nil {
			return err
		}
	}
	logger, closeLog, err := fileLogger(filepath.Join(r.scratch, "daemon.log"), "info")
	if err != nil {
		return err
	}
	defer closeLog()
	first := op{method: http.MethodGet, path: topkPath(in.sources[0])}
	var d *daemon
	var setups, heaps []float64
	for i := 0; i < setupRepsFresh; i++ {
		if d != nil {
			if err := d.ls.stop(); err != nil {
				return err
			}
		}
		var setup, heap float64
		if d, setup, heap, err = startDaemon(r, in, state, logger, first); err != nil {
			return err
		}
		setups = append(setups, setup)
		heaps = append(heaps, heap)
	}
	defer d.ls.stop()
	r.set("setup_s", "s", median(setups))
	r.set("heap_mb", "MB", median(heaps))

	ref, err := readRefModel(filepath.Join(state, "model.i2v"))
	if err != nil {
		return err
	}
	// The reader checks every answer against the current and the previous
	// published model. An answer from a model published since the last
	// check is held until the round reads that model's file.
	var refMu sync.Mutex
	refs := [2]*refModel{ref, ref}
	type heldAnswer struct {
		u   int32
		res []ranked
	}
	var held []heldAnswer
	recheck := func() {
		refMu.Lock()
		defer refMu.Unlock()
		for _, h := range held {
			if err := refs[0].checkTopK(h.u, topK, h.res, false); err != nil && refs[1].checkTopK(h.u, topK, h.res, false) != nil {
				r.mismatch(1, fmt.Errorf("reader: %w", err))
			}
		}
		held = held[:0]
	}
	reader := newClients(d.ls.base, 1)
	defer closeClients(reader)
	next := func(_, i int) op {
		u := in.sources[i%len(in.sources)]
		return op{name: "client.topk", method: http.MethodGet, path: topkPath(u),
			check: func(b []byte) error {
				var a topkAnswer
				if err := json.Unmarshal(b, &a); err != nil {
					return err
				}
				refMu.Lock()
				defer refMu.Unlock()
				if refs[0].checkTopK(u, topK, a.Results, false) != nil && refs[1].checkTopK(u, topK, a.Results, false) != nil {
					held = append(held, heldAnswer{u, a.Results})
				}
				return nil
			}}
	}
	probe := newClients(d.ls.base, 1)
	defer closeClients(probe)
	var offset int64
	if fi, err := os.Stat(filepath.Join(state, "actions.tsv")); err == nil {
		offset = fi.Size()
	} else {
		return err
	}

	// round appends batch i, runs one Step and takes the first answer from
	// the published model.
	round := func(i int) (roundStats, error) {
		var rs roundStats
		d.mu.Lock()
		d.events, d.reloads = nil, nil
		d.mu.Unlock()
		sp := r.rec.start("round", nil, 0)
		t0 := time.Now()
		if err := appendLog(filepath.Join(state, "actions.tsv"), in.batches[i]); err != nil {
			return rs, err
		}
		d.step = r.rec.start("pipeline.step", sp, 0)
		published, err := d.p.Step(context.Background())
		d.step.end()
		if err != nil {
			return rs, err
		}
		p := in.probes[i]
		status, err := probe[0].do(http.MethodGet, "/v1/score?source="+strconv.Itoa(int(p.u))+"&target="+strconv.Itoa(int(p.v)), nil)
		rs.fresh = time.Since(t0)
		sp.end()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("probe: HTTP %d", status)
		}
		if err != nil {
			return rs, err
		}
		offset += int64(len(in.batches[i]))
		var got struct{ Score float64 }
		if err := json.Unmarshal(probe[0].buf.Bytes(), &got); err != nil {
			return rs, err
		}
		if traces := d.ls.s.Tracer().Traces(obs.TraceFilter{Root: "pipeline_step", Limit: 1}); len(traces) > 0 {
			rs.trace = traces[0]
		}
		d.mu.Lock()
		rs.events = d.events
		if len(d.reloads) > 0 {
			rs.reload = d.reloads[0]
		}
		d.mu.Unlock()

		// Checks, off the clock.
		if !published {
			r.mismatch(1, fmt.Errorf("round %d: nothing published", i))
			return rs, nil
		}
		next, err := readRefModel(filepath.Join(state, "model.i2v"))
		if err != nil {
			return rs, err
		}
		refMu.Lock()
		refs[0], refs[1] = next, refs[0]
		refMu.Unlock()
		recheck()
		if err := checkFreshProbe(next, refs[1], p.u, p.v, got.Score); err != nil {
			r.mismatch(1, fmt.Errorf("round %d: %w", i, err))
		}
		if crc, err := statzCRC(probe[0]); err != nil {
			return rs, err
		} else if want := fmt.Sprintf("%08x", next.crc); crc != want {
			r.mismatch(1, fmt.Errorf("round %d: /debug/statz model crc %s, published file %s", i, crc, want))
		}
		if c := d.p.Committed().Offset; c != offset {
			r.mismatch(1, fmt.Errorf("round %d: committed cursor %d, appended bytes end at %d", i, c, offset))
		}
		return rs, nil
	}

	var rounds []roundStats
	var measuring atomic.Bool
	stopReader := make(chan struct{})
	readerDone := make(chan *loadStats, 1)
	go func() { readerDone <- readerLoop(reader[0], next, stopReader, &measuring, r.rec) }()
	roundErr := func() error {
		for i := 0; i < warmRounds; i++ {
			if _, err := round(i); err != nil {
				return err
			}
		}
		hits0, miss0, err := corpusCache(d.ls.s.Metrics())
		if err != nil {
			return err
		}
		r.beginWindow()
		measuring.Store(true)
		windowStart := time.Now()
		for i := warmRounds; time.Since(windowStart) < r.window || len(rounds) < minRounds; i++ {
			rs, err := round(i)
			if err != nil {
				return err
			}
			rounds = append(rounds, rs)
		}
		measuring.Store(false)
		r.endWindow()
		hits1, miss1, err := corpusCache(d.ls.s.Metrics())
		if err != nil {
			return err
		}
		r.fresh = &freshLayers{rounds: rounds, state: state, in: in,
			cacheHitRatio: (hits1 - hits0) / math.Max(1, hits1-hits0+miss1-miss0)}
		return nil
	}()
	close(stopReader)
	st := <-readerDone
	recheck()
	if roundErr != nil {
		return roundErr
	}
	r.attempted += int64(warmRounds + len(rounds))
	if err := r.reportRequests(st, 0); err != nil {
		return err
	}
	var fresh []float64
	for _, rs := range rounds {
		fresh = append(fresh, ms(rs.fresh))
	}
	r.set("heavy_p50_ms", "ms", median(fresh))

	store, err := embed.LoadFile(filepath.Join(state, "model.i2v"))
	if err != nil {
		return err
	}
	m, err := eval.ActivationPrediction(in.graph, in.test, eval.LatentActivationScorer(store, eval.Ave))
	if err != nil {
		return err
	}
	r.set("auc", "auc", m.AUC)
	return nil
}

// freshLayers is what the freshness pass leaves for the per-layer metrics.
type freshLayers struct {
	rounds        []roundStats
	state         string
	in            *freshInputs
	cacheHitRatio float64
}

// readerLoop is one closed-loop client that runs until stop closes and
// records latencies only for requests sent while measuring is set.
func readerLoop(c *client, next func(c, i int) op, stop <-chan struct{}, measuring *atomic.Bool, rec *recorder) *loadStats {
	st := &loadStats{lat: make([][]float64, 1)}
	var first, last time.Time
	for i := 0; ; i++ {
		select {
		case <-stop:
			st.window = last.Sub(first)
			return st
		default:
		}
		o := next(0, i)
		t0 := time.Now()
		on := measuring.Load()
		var sp *span
		if on {
			sp = rec.start(o.name, nil, 1)
		}
		status, err := c.do(o.method, o.path, o.body)
		el := time.Since(t0)
		sp.end()
		if !on {
			continue
		}
		if first.IsZero() {
			first = t0
		}
		last = t0.Add(el)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s %s: HTTP %d", o.method, o.path, status)
		}
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			continue
		}
		st.completed++
		st.lat[0] = append(st.lat[0], ms(el))
		if err := o.check(c.buf.Bytes()); err != nil {
			st.mismatch++
			if st.firstErr == nil {
				st.firstErr = err
			}
		}
	}
}

func appendLog(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// corpusCache reads the pipeline's corpus-cache counters from the registry
// the daemon exports on /metrics.
func corpusCache(reg *obs.Registry) (hits, misses float64, err error) {
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(b.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "pipeline_corpus_cache_hits_total":
			hits = v
		case "pipeline_corpus_cache_misses_total":
			misses = v
		}
	}
	return hits, misses, nil
}

// statzCRC reads the served model's CRC from /debug/statz.
func statzCRC(c *client) (string, error) {
	status, err := c.do(http.MethodGet, "/debug/statz", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("statz: HTTP %d", status)
	}
	if err != nil {
		return "", err
	}
	var s struct {
		Model struct {
			CRC32 string `json:"crc32"`
		} `json:"model"`
	}
	err = json.Unmarshal(c.buf.Bytes(), &s)
	return s.Model.CRC32, err
}
