package main

// Per-layer measurements, taken in the traced run only. Each times calls
// into one layer's public functions from outside, on the workload's own
// inputs, and records a span around each call.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/ann"
	"inf2vec/internal/core"
	"inf2vec/internal/embed"
	"inf2vec/internal/eval"
	"inf2vec/internal/graph"
	"inf2vec/internal/ic"
	"inf2vec/internal/infmax"
	"inf2vec/internal/obs"
	"inf2vec/internal/rng"
	"inf2vec/internal/serve"
	"inf2vec/internal/vecmath"
)

// timeRepeated calls f n times under a span each, which f may parent its
// own spans on, and returns the median duration.
func timeRepeated(r *run, name string, n int, f func(i int, sp *span) error) (time.Duration, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sp := r.rec.start(name, nil, 0)
		t := time.Now()
		if err := f(i, sp); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t)))
		sp.end()
	}
	return time.Duration(median(ds)), nil
}

// perCall times batches of n calls, each batch under one span, and
// returns the median per-call time in nanoseconds.
func perCall(r *run, name string, batches, n int, f func(i int)) float64 {
	ds := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		sp := r.rec.start(name, nil, 0)
		t := time.Now()
		for i := 0; i < n; i++ {
			f(b*n + i)
		}
		ds = append(ds, float64(time.Since(t).Nanoseconds())/float64(n))
		sp.set("calls", float64(n))
		sp.end()
	}
	return median(ds)
}

// Sinks keep the measured kernel calls from being optimized away.
var (
	sinkF32 float32
	sinkI32 int32
	sinkX   float64
)

// layersVecmath measures the kernels at the model's dimension, over a
// block of rows that stays in cache.
func layersVecmath(r *run, k int) {
	rg := rand.New(rand.NewPCG(r.seed, 1))
	const rows, reps, batches = 256, 800, 21
	a, b := make([][]float32, rows), make([][]float32, rows)
	qa, qb := make([][]int8, rows), make([][]int8, rows)
	for j := 0; j < rows; j++ {
		a[j], b[j], qa[j], qb[j] = make([]float32, k), make([]float32, k), make([]int8, k), make([]int8, k)
		for i := 0; i < k; i++ {
			a[j][i], b[j][i] = rg.Float32()-0.5, rg.Float32()-0.5
			qa[j][i], qb[j][i] = int8(rg.IntN(255)-127), int8(rg.IntN(255)-127)
		}
	}
	kernel := func(name string, pass func()) float64 {
		return perCall(r, name, batches, 1, func(int) {
			for i := 0; i < reps; i++ {
				pass()
			}
		}) / (reps * rows)
	}
	r.set("vecmath.dot_ns", "ns", kernel("vecmath.dot", func() {
		for j := range a {
			sinkF32 += vecmath.Dot(a[j], b[j])
		}
	}))
	r.set("vecmath.axpy_ns", "ns", kernel("vecmath.axpy", func() {
		for j := range a {
			vecmath.Axpy(1e-9, b[j], a[j])
		}
	}))
	r.set("vecmath.int8dot_ns", "ns", kernel("vecmath.int8dot", func() {
		for j := range qa {
			sinkI32 += vecmath.Int8Dot(qa[j], qb[j])
		}
	}))
}

// layersEmbed times loading the workload's model file as the workload
// holds it (fp32, or int8 where it serves int8) and saving it with fsync.
func layersEmbed(r *run, path string, quantized bool) error {
	var resident int64
	load, err := timeRepeated(r, "embed.load", 5, func(int, *span) error {
		if quantized {
			q, _, err := embed.LoadQuantizedFile(path)
			if err == nil {
				resident = q.Bytes()
			}
			return err
		}
		s, err := embed.LoadFile(path)
		if err == nil {
			resident = s.Bytes()
		}
		return err
	})
	if err != nil {
		return err
	}
	store, err := embed.LoadFile(path)
	if err != nil {
		return err
	}
	save, err := timeRepeated(r, "embed.save_file", 5, func(int, *span) error {
		return store.SaveFile(filepath.Join(r.scratch, "save.i2v"))
	})
	if err != nil {
		return err
	}
	r.set("embed.load_ms", "ms", ms(load))
	r.set("embed.resident_mb", "MB", float64(resident)/1e6)
	r.set("embed.save_ms", "ms", ms(save))
	return nil
}

// layersEval times the scorer on the workload's pairs, and its exact
// top-k scan (the shadow scan of ivf mode) on the workload's sources.
func layersEval(r *run, sc *eval.Scorer, pairs []pair, sources []int32) error {
	r.set("eval.pair_ns", "ns", perCall(r, "eval.pair", 11, len(pairs), func(i int) {
		p := pairs[i%len(pairs)]
		x, _ := sc.Pair(p.u, p.v)
		sinkX += x
	}))
	ctx := context.Background()
	exact, err := timeRepeated(r, "eval.topk_exact", 101, func(i int, _ *span) error {
		_, err := sc.TopInfluenced(ctx, []int32{sources[i%len(sources)]}, eval.Max, topK)
		return err
	})
	if err != nil {
		return err
	}
	r.set("eval.topk_exact_ms", "ms", ms(exact))
	return nil
}

// sourcePairs pairs each source with the next, for workloads whose inputs
// hold sources but no score requests.
func sourcePairs(sources []int32) []pair {
	ps := make([]pair, len(sources))
	for i, u := range sources {
		ps[i] = pair{u, sources[(i+1)%len(sources)]}
	}
	return ps
}

// discardWriter is a minimal ResponseWriter for in-process handler calls.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// handlerSamples calls h.ServeHTTP on a batch of the workload's requests
// and returns per-request microseconds plus mallocs and bytes per request.
func handlerSamples(r *run, h http.Handler, ops []op, spans bool) (us []float64, allocs, bytesPer float64, err error) {
	reqs := make([]*http.Request, len(ops))
	ws := make([]*discardWriter, len(ops))
	for i, o := range ops {
		var body *bytes.Reader
		if o.body != nil {
			body = bytes.NewReader(o.body)
			reqs[i] = httptest.NewRequest(o.method, o.path, body)
		} else {
			reqs[i] = httptest.NewRequest(o.method, o.path, nil)
		}
		ws[i] = &discardWriter{h: http.Header{}}
	}
	us = make([]float64, len(ops))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, req := range reqs {
		var sp *span
		if spans {
			sp = r.rec.start("serve.handler", nil, 0)
		}
		t := time.Now()
		h.ServeHTTP(ws[i], req)
		us[i] = float64(time.Since(t).Nanoseconds()) / 1e3
		sp.end()
	}
	runtime.ReadMemStats(&m1)
	for i, w := range ws {
		if w.code != http.StatusOK {
			return nil, 0, 0, fmt.Errorf("in-process %s %s: HTTP %d", ops[i].method, ops[i].path, w.code)
		}
	}
	n := float64(len(ops))
	return us, float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n, nil
}

func layersServePoint(r *run, dirs inputDirs) error {
	in, err := loadServingInputs(dirs, false)
	if err != nil {
		return err
	}
	// Three servers over the same model, never listening: the default
	// (cmd/serve's), one with tracing disabled, one whose log level drops
	// the access line. Their handlers run the same request batches in
	// turn, so drift on the machine hits all three alike.
	variants := []struct {
		name  string
		level string
		trace obs.TracerConfig
	}{
		{"default", "info", serveConfig("", "", "", "", nil).Trace},
		{"untraced", "info", obs.TracerConfig{Disabled: true}},
		{"quiet", "warn", serveConfig("", "", "", "", nil).Trace},
	}
	handlers := make([]http.Handler, len(variants))
	for i, v := range variants {
		logger, closeLog, err := fileLogger(filepath.Join(r.scratch, "inproc-"+v.name+".log"), v.level)
		if err != nil {
			return err
		}
		defer closeLog()
		cfg := serveConfig(in.model, "", "fp32", serve.TopKIndexExact, logger)
		cfg.Trace = v.trace
		s, err := serve.New(cfg)
		if err != nil {
			return err
		}
		handlers[i] = s.Handler()
	}
	const batch, rounds = 2048, 21
	samples := make([][]float64, len(variants))
	allocs := make([][]float64, len(variants))
	var bytesPer []float64
	// The collector is held off inside batches and run between them, so a
	// GC cycle never lands on one variant's batch and not another's: the
	// handler figures are the direct cost per request, and the GC pressure
	// it causes is reported as allocations and bytes per request.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for round := 0; round < rounds; round++ {
		ops := make([]op, batch)
		for i := range ops {
			j := round*batch + i
			if j%activationEvery == activationEvery-1 {
				ops[i] = in.activationOp(j / activationEvery)
			} else {
				ops[i] = in.scoreOp(j)
			}
		}
		// Each batch starts from a collected heap, and the order of the
		// variants rotates, so neither another variant's garbage nor its
		// position in the round lands on a variant's figures.
		for k := range handlers {
			v := (k + round) % len(handlers)
			runtime.GC()
			us, a, b, err := handlerSamples(r, handlers[v], ops, v == 0 && round == rounds-1)
			if err != nil {
				return err
			}
			if round == 0 {
				continue // warm-up
			}
			samples[v] = append(samples[v], us...)
			allocs[v] = append(allocs[v], a)
			if v == 0 {
				bytesPer = append(bytesPer, b)
			}
		}
	}
	// The mean-based figures drop each variant's slowest 0.1% of requests:
	// that removes stalls from outside the process, which land on one
	// variant or another at random, and keeps the 1% of requests whose
	// trace the default tracer samples.
	def, untraced := samples[0], samples[1]
	defMean, untracedMean, quietMean := trimmedMean(def), trimmedMean(untraced), trimmedMean(samples[2])
	r.set("serve.handler_us", "us", median(def))
	r.set("serve.allocs_per_req", "count", median(allocs[0]))
	r.set("serve.bytes_per_req", "B", median(bytesPer))
	r.set("serve.transport_us", "us", r.untraced["p50_ms"].Value*1e3-median(def))
	r.set("obs.trace_overhead_p50_pct", "%", 100*(median(def)-median(untraced))/median(untraced))
	r.set("obs.trace_overhead_mean_pct", "%", 100*(defMean-untracedMean)/untracedMean)
	r.set("obs.log_overhead_us", "us", defMean-quietMean)
	r.set("obs.trace_allocs_per_req", "count", median(allocs[0])-median(allocs[1]))

	store, err := embed.LoadFile(in.model)
	if err != nil {
		return err
	}
	sc, err := eval.NewScorer(store, store.NumUsers())
	if err != nil {
		return err
	}
	if err := layersEval(r, sc, in.scores, in.sources); err != nil {
		return err
	}
	r.set("eval.activation_us", "us", perCall(r, "eval.activation", 11, len(in.activation), func(i int) {
		a := in.activation[i%len(in.activation)]
		agg, _ := eval.ParseAggregator(a.Agg)
		x, _ := sc.Activation(a.Active, a.Candidate, agg)
		sinkX += x
	})/1e3)
	if err := layersEmbed(r, in.model, false); err != nil {
		return err
	}
	layersVecmath(r, store.Dim())
	return nil
}

func layersServeRank(r *run, dirs inputDirs) error {
	in, err := loadServingInputs(dirs, true)
	if err != nil {
		return err
	}
	if err := layersEmbed(r, in.model, true); err != nil {
		return err
	}
	q, _, err := embed.LoadQuantizedFile(in.model)
	if err != nil {
		return err
	}
	sc, err := eval.NewScorer(q, q.NumUsers())
	if err != nil {
		return err
	}
	if err := layersEval(r, sc, in.scores, in.sources); err != nil {
		return err
	}
	ctx := context.Background()

	var ix *ann.Index
	build, err := timeRepeated(r, "ann.build", 3, func(int, *span) error {
		var err error
		ix, err = ann.Build(q, ann.Config{Seed: uint64(in.ref.crc)})
		return err
	})
	if err != nil {
		return err
	}
	r.set("ann.build_s", "s", build.Seconds())
	var cands []float64
	search, err := timeRepeated(r, "ann.search", 2001, func(i int, parent *span) error {
		u := in.sources[i%len(in.sources)]
		_, st, err := ix.Search(ctx, ann.Query(q.SourceVec(u), nil), 0, topK, func(ctx context.Context, c []int32) ([]eval.Ranked, error) {
			sp := r.rec.start("eval.top_among", parent, 0)
			defer sp.end()
			return sc.TopAmong(ctx, []int32{u}, eval.Max, topK, c)
		})
		cands = append(cands, float64(st.Candidates))
		return err
	})
	if err != nil {
		return err
	}
	r.set("ann.search_us", "us", float64(search.Nanoseconds())/1e3)
	r.set("ann.candidates_per_query", "count", mean(cands))
	r.set("ann.recall_at_10", "ratio", r.recall)

	g, err := readGraph(in.graph)
	if err != nil {
		return err
	}
	n := q.NumUsers()
	prober := &infmax.ModelProber{G: g, Offset: -2, Score: func(u, v int32) float64 {
		if u >= n || v >= n {
			return -50
		}
		return q.Score(u, v)
	}}
	var evals []float64
	var sets [][]int32
	greedy, err := timeRepeated(r, "infmax.greedy", 11, func(i int, _ *span) error {
		req := in.seeds[len(in.seeds)-1-i]
		res, err := infmax.Greedy(ctx, g, prober, infmax.Config{Seeds: req.K, MonteCarloRuns: req.runs(),
			Seed: uint64(i), Candidates: req.Candidates})
		if err != nil {
			return err
		}
		evals = append(evals, float64(res.Evaluations))
		sets = append(sets, res.Seeds)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("infmax.greedy_ms", "ms", ms(greedy))
	r.set("infmax.evaluations_per_req", "count", mean(evals))
	calls := 0
	t := time.Now()
	for time.Since(t) < 2*time.Second {
		sp := r.rec.start("ic.expected_spread", nil, 0)
		if _, err := ic.ExpectedSpread(ctx, g, prober, sets[calls%len(sets)], seedsMCRuns, rng.New(uint64(calls))); err != nil {
			return err
		}
		sp.end()
		calls++
	}
	r.set("ic.evals_per_s", "1/s", float64(calls)/time.Since(t).Seconds())

	// The README's default-policy request, under the server's default
	// deadline: how many spread evaluations it completes before the
	// deadline cuts it off.
	dctx, cancel := context.WithTimeout(ctx, defaultTimeout)
	sp := r.rec.start("infmax.greedy_default_req", nil, 0)
	res, err := infmax.Greedy(dctx, g, prober, infmax.Config{Seeds: defaultReqK, MonteCarloRuns: seedsMCRuns,
		Seed: 1, Candidates: degreeShortlist(g, defaultReqPool)})
	sp.end()
	cancel()
	if err != nil {
		return err
	}
	r.set("infmax.default_req_evals", "count", float64(res.Evaluations))
	if res.Partial {
		fmt.Fprintf(os.Stderr, "perfbench: the default-policy /v1/seeds request stops at the deadline (%s) after %d evaluations with %d of %d seeds\n",
			res.Stopped, res.Evaluations, len(res.Seeds), defaultReqK)
	}
	layersVecmath(r, q.Dim())
	return nil
}

func layersFreshness(r *run, _ inputDirs) error {
	fl := r.fresh
	if fl == nil || len(fl.rounds) == 0 {
		return fmt.Errorf("freshness pass left no rounds")
	}
	stage := map[string][]float64{}
	var reloads, ckpt, corpus []float64
	for _, rs := range fl.rounds {
		reloads = append(reloads, ms(rs.reload))
		var trainStart, corpusEnd, epochEnd time.Time
		if rs.trace != nil {
			for _, sp := range rs.trace.Spans {
				stage[sp.Name] = append(stage[sp.Name], sp.DurationMS)
				if sp.Name == "train" {
					trainStart = sp.Start
				}
			}
		}
		for _, e := range rs.events {
			switch e.Kind {
			case core.EventCorpusProgress:
				corpusEnd = e.Time
			case core.EventEpochEnd:
				epochEnd = e.Time
			case core.EventCheckpointWritten:
				ckpt = append(ckpt, ms(e.Time.Sub(epochEnd)))
			}
		}
		// The corpus phase runs from the start of the train stage to the
		// last corpus_progress event. (The program's own corpus_gen span
		// opens at the first progress event, which for a corpus built
		// within one progress interval is the last one.)
		if !trainStart.IsZero() && !corpusEnd.IsZero() {
			corpus = append(corpus, ms(corpusEnd.Sub(trainStart)))
		}
	}
	for _, name := range []string{"tail", "train", "publish", "notify"} {
		if len(stage[name]) == 0 {
			return fmt.Errorf("no %q span in the pipeline_step traces", name)
		}
		r.set("pipeline."+name+"_ms", "ms", median(stage[name]))
	}
	retries := 0
	for _, rs := range fl.rounds {
		if rs.trace == nil {
			continue
		}
		for _, sp := range rs.trace.Spans {
			if a, ok := sp.Attrs["attempt"].(int); ok && a > 1 {
				retries++
			}
		}
	}
	r.set("pipeline.stage_retries", "count", float64(retries))
	r.set("core.corpus_ms", "ms", median(corpus))
	r.set("core.corpus_cache_hit_ratio", "ratio", fl.cacheHitRatio)
	r.set("serve.reload_ms", "ms", median(reloads))
	r.set("checkpoint.write_ms", "ms", median(ckpt))

	model := filepath.Join(fl.state, "model.i2v")
	if err := layersEmbed(r, model, false); err != nil {
		return err
	}
	store, err := embed.LoadFile(model)
	if err != nil {
		return err
	}
	sc, err := eval.NewScorer(store, store.NumUsers())
	if err != nil {
		return err
	}
	if err := layersEval(r, sc, sourcePairs(fl.in.sources), fl.in.sources); err != nil {
		return err
	}
	layersVecmath(r, store.Dim())
	// The tail a round does: the last appended batch, from the cursor the
	// round before it committed.
	logPath := filepath.Join(fl.state, "actions.tsv")
	fi, err := os.Stat(logPath)
	if err != nil {
		return err
	}
	size := fi.Size()
	from := size - int64(len(fl.in.batches[len(fl.rounds)+warmRounds-1]))
	tail, err := timeRepeated(r, "actionlog.tail_tsv", 21, func(int, *span) error {
		acts, next, err := actionlog.TailTSV(logPath, from)
		if err == nil && (next != size || len(acts) == 0) {
			err = fmt.Errorf("tail of the last batch read %d actions up to %d, want up to %d", len(acts), next, size)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("actionlog.tail_ms", "ms", ms(tail))
	build, err := timeRepeated(r, "ann.build", 5, func(int, *span) error {
		_, err := ann.Build(store, ann.Config{Seed: uint64(store.Checksum())})
		return err
	})
	if err != nil {
		return err
	}
	r.set("ann.build_s", "s", build.Seconds())
	return nil
}

func layersTrain(r *run, dirs inputDirs) error {
	dir := dirs.data
	g, l, err := trainInputs(dir)
	if err != nil {
		return err
	}
	cfg := paperConfig(r.seed, procs())
	var positives int64
	corpus, err := timeRepeated(r, "core.generate_corpus", 5, func(int, *span) error {
		c := core.GenerateCorpus(g, l, cfg, rng.New(cfg.Seed).Split())
		positives = c.NumPositives
		return nil
	})
	if err != nil {
		return err
	}
	r.set("core.corpus_ms", "ms", ms(corpus))
	r.set("core.positives", "count", float64(positives))
	tr, err := train(r, dir, 1, false)
	if err != nil {
		return err
	}
	var epochs []float64
	for _, e := range tr.epochs {
		epochs = append(epochs, e.DurationSeconds*1e3)
	}
	r.set("trainer.epoch_ms_1w", "ms", median(epochs))
	model := filepath.Join(r.scratch, "trained.i2v")
	if err := tr.res.Model.Store.SaveFile(model); err != nil {
		return err
	}
	if err := layersEmbed(r, model, false); err != nil {
		return err
	}
	sources, err := readUsers(filepath.Join(dirs.reqs, "topk.tsv"))
	if err != nil {
		return err
	}
	sc, err := eval.NewScorer(tr.res.Model.Store, tr.res.Model.Store.NumUsers())
	if err != nil {
		return err
	}
	if err := layersEval(r, sc, sourcePairs(sources), sources); err != nil {
		return err
	}
	layersVecmath(r, cfg.Dim)
	return nil
}

// degreeShortlist is the server's default candidate pool: the n users of
// highest out-degree, ties by ascending id.
func degreeShortlist(g *graph.Graph, n int) []int32 {
	us := make([]int32, g.NumNodes())
	for u := range us {
		us[u] = int32(u)
	}
	sort.SliceStable(us, func(i, j int) bool { return g.OutDegree(us[i]) > g.OutDegree(us[j]) })
	return us[:min(n, len(us))]
}
