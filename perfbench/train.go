package main

// The train workload: cold Inf2vec training at the paper's defaults on the
// digg-like preset, with as many hogwild workers as cores.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/core"
	"inf2vec/internal/eval"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
)

const (
	setupRepsTrain = 31
	// aucFloor is the least held-out activation-prediction AUC (Table II) a
	// trained model may have.
	aucFloor = 0.7
)

// paperConfig is Inf2vec at the paper's defaults: K=50, L=50, α=0.1,
// restart 0.5, γ=0.005, |N|=5, 10 iterations.
func paperConfig(seed uint64, workers int) core.Config {
	return core.Config{
		Dim: 50, ContextLength: 50, Alpha: 0.1, RestartRatio: 0.5, LearningRate: 0.005,
		NegativeSamples: 5, Iterations: 10, Workers: workers, Seed: seed,
	}
}

// trainInputs reads the graph and the training log.
func trainInputs(dir string) (*graph.Graph, *actionlog.Log, error) {
	g, err := readGraph(filepath.Join(dir, "graph.tsv"))
	if err != nil {
		return nil, nil, err
	}
	l, err := readLog(filepath.Join(dir, "actions.tsv"), g.NumNodes())
	return g, l, err
}

// training is one observed core.TrainContext call.
type training struct {
	res    *core.Result
	setup  time.Duration // start → train_start: read inputs, corpus, init
	wall   time.Duration // start → TrainContext returned
	heapMB float64       // live heap at train_start beyond the heap at start
	epochs []core.Event  // epoch_end events
}

// train reads the inputs and trains; with setupOnly it cancels at
// train_start, so the call measures set-up alone.
func train(r *run, dir string, workers int, setupOnly bool) (*training, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := &training{}
	root := r.rec.start("train", nil, 0)
	t0 := time.Now()
	g, l, err := trainInputs(dir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := paperConfig(r.seed, workers)
	var epoch *span
	callStart := time.Now()
	var lastCorpus time.Time
	cfg.Telemetry = func(e core.Event) {
		switch e.Kind {
		case core.EventCorpusProgress:
			lastCorpus = e.Time
		case core.EventTrainStart:
			tr.setup = e.Time.Sub(t0)
			r.rec.add("core.corpus", root, 0, callStart, lastCorpus)
			if setupOnly {
				cancel()
			}
			runtime.GC()
			runtime.ReadMemStats(&m1)
			tr.heapMB = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / 1e6
		case core.EventEpochStart:
			epoch = r.rec.start("core.epoch", root, 0)
		case core.EventEpochEnd:
			epoch.endAt(e.Time)
			tr.epochs = append(tr.epochs, e)
		}
	}
	tr.res, err = core.TrainContext(ctx, g, l, cfg)
	tr.wall = time.Since(t0)
	root.end()
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// checkedCorpus regenerates the corpus TrainContext trains on (same seed,
// same RNG split) and checks it tuple by tuple.
func checkedCorpus(r *run, dir string) (*core.Corpus, error) {
	g, l, err := trainInputs(dir)
	if err != nil {
		return nil, err
	}
	adj, err := readAdjacency(filepath.Join(dir, "graph.tsv"))
	if err != nil {
		return nil, err
	}
	cfg := paperConfig(r.seed, procs())
	sp := r.rec.start("core.generate_corpus", nil, 0)
	c := core.GenerateCorpus(g, l, cfg, rng.New(cfg.Seed).Split())
	sp.end()
	if err := checkCorpus(c, adj, l, cfg.ContextLength, cfg.Alpha); err != nil {
		r.mismatch(1, err)
	}
	return c, nil
}

// heldOutAUC is Table II's activation-prediction AUC on the held-out
// episodes, with the paper's default Eq. 7 aggregator.
func heldOutAUC(dir string, m *core.Model) (float64, error) {
	g, err := readGraph(filepath.Join(dir, "graph.tsv"))
	if err != nil {
		return 0, err
	}
	test, err := readLog(filepath.Join(dir, "heldout.tsv"), g.NumNodes())
	if err != nil {
		return 0, err
	}
	met, err := eval.ActivationPrediction(g, test, eval.LatentActivationScorer(m.Store, eval.Ave))
	return met.AUC, err
}

// checkTraining checks one completed training against the checked corpus.
func checkTraining(r *run, tr *training, c *core.Corpus) {
	res := tr.res
	if res.NumTuples != len(c.Tuples) || res.NumPositives != c.NumPositives {
		r.mismatch(1, fmt.Errorf("train: %d tuples and %d positives, the checked corpus has %d and %d",
			res.NumTuples, res.NumPositives, len(c.Tuples), c.NumPositives))
	}
	if len(res.Epochs) != 10 || res.Canceled {
		r.mismatch(1, fmt.Errorf("train: %d epochs, canceled=%v", len(res.Epochs), res.Canceled))
		return
	}
	if first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss; !(last > first) {
		r.mismatch(1, fmt.Errorf("train: objective did not improve: %.4f → %.4f", first, last))
	}
}

func measureTrain(r *run, dirs inputDirs) error {
	dir := dirs.data
	c, err := checkedCorpus(r, dir)
	if err != nil {
		return err
	}
	// Warm-up: one set-up, not counted.
	if _, err := train(r, dir, procs(), true); err != nil {
		return err
	}
	// Half the set-ups run before the trainings and half after, so setup_s
	// samples the start and the end of the run, not only its first second.
	var setups, heaps []float64
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			tr, err := train(r, dir, procs(), true)
			if err != nil {
				return err
			}
			setups = append(setups, tr.setup.Seconds())
			heaps = append(heaps, tr.heapMB)
			r.attempted++
		}
		return nil
	}
	if err := setUp(setupRepsTrain / 2); err != nil {
		return err
	}

	var epochMS, rates, walls, aucs []float64
	r.beginWindow()
	start := time.Now()
	for len(aucs) == 0 || time.Since(start) < r.window {
		tr, err := train(r, dir, procs(), false)
		if err != nil {
			return err
		}
		r.attempted++
		checkTraining(r, tr, c)
		walls = append(walls, ms(tr.wall))
		for _, e := range tr.epochs {
			epochMS = append(epochMS, e.DurationSeconds*1e3)
			rates = append(rates, e.ExamplesPerSec)
		}
		auc, err := heldOutAUC(dir, tr.res.Model)
		if err != nil {
			return err
		}
		if auc < aucFloor {
			r.mismatch(1, fmt.Errorf("train: held-out AUC %.4f below the floor %.2f", auc, aucFloor))
		}
		aucs = append(aucs, auc)
	}
	r.endWindow()
	if err := setUp(setupRepsTrain - len(setups)); err != nil {
		return err
	}
	r.set("setup_s", "s", median(setups))
	r.set("heap_mb", "MB", median(heaps))
	r.set("p50_ms", "ms", median(epochMS))
	r.set("ops_per_s", "1/s", median(rates))
	r.set("heavy_p50_ms", "ms", median(walls))
	r.set("auc", "auc", median(aucs))
	return nil
}
