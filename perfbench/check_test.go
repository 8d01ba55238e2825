package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/core"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
	"inf2vec/internal/vecmath"
)

// fixtureModel returns a random n×k model as file bytes and as float32
// rows, the way the serving path holds it.
func fixtureModel(t *testing.T, n, k int, seed uint64) (*refModel, [][]float32, [][]float32, []float32, []float32) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 0))
	rnd := func(m int, scale float32) []float32 {
		out := make([]float32, m)
		for i := range out {
			out[i] = (2*r.Float32() - 1) * scale
		}
		return out
	}
	s, tg, bs, bt := rnd(n*k, 1), rnd(n*k, 1), rnd(n, 0.5), rnd(n, 0.5)
	m, err := parseRefModel(encodeRefModel(n, k, s, tg, bs, bt))
	if err != nil {
		t.Fatal(err)
	}
	rows := func(x []float32) [][]float32 {
		out := make([][]float32, n)
		for u := range out {
			out[u] = x[u*k : (u+1)*k]
		}
		return out
	}
	return m, rows(s), rows(tg), bs, bt
}

// servedScore is x(u,v) as the fp32 serving path computes it.
func servedScore(s, tg [][]float32, bs, bt []float32, u, v int32) float64 {
	return float64(vecmath.Dot(s[u], tg[v])) + float64(bs[u]) + float64(bt[v])
}

func TestCheckScoreRejectsPerturbedScore(t *testing.T) {
	m, s, tg, bs, bt := fixtureModel(t, 8, 50, 1)
	for u := int32(0); u < 8; u++ {
		for v := int32(0); v < 8; v++ {
			got := servedScore(s, tg, bs, bt, u, v)
			if err := m.checkScore(u, v, u, v, got, false); err != nil {
				t.Fatalf("correct score rejected: %v", err)
			}
			_, mag := m.score(u, v)
			bad := got + 2*m.fp32Tol(u, v, mag)
			if err := m.checkScore(u, v, u, v, bad, false); err == nil {
				t.Fatalf("score(%d,%d) perturbed beyond its bound was accepted", u, v)
			}
			if err := m.checkScore(u, v, u, v+1, got, false); err == nil {
				t.Fatal("an answer for another pair was accepted")
			}
		}
	}
}

func TestCheckActivationRejectsPerturbedAggregate(t *testing.T) {
	m, s, tg, bs, bt := fixtureModel(t, 8, 50, 2)
	active := []int32{1, 4, 6}
	var sum, mx float64 = 0, math.Inf(-1)
	for _, u := range active {
		x := servedScore(s, tg, bs, bt, u, 3)
		sum += x
		mx = math.Max(mx, x)
	}
	if err := m.checkActivation(active, 3, "ave", sum/3); err != nil {
		t.Fatalf("correct ave rejected: %v", err)
	}
	if err := m.checkActivation(active, 3, "max", mx); err != nil {
		t.Fatalf("correct max rejected: %v", err)
	}
	if err := m.checkActivation(active, 3, "ave", sum/3+1e-4); err == nil {
		t.Fatal("perturbed ave accepted")
	}
	if err := m.checkActivation(active, 3, "ave", mx); err == nil {
		t.Fatal("the max given as the ave accepted")
	}
}

// servedTopK ranks like the serving path: float32-based scores, score
// descending then user ascending.
func servedTopK(s, tg [][]float32, bs, bt []float32, u int32, k int) []ranked {
	var all []ranked
	for v := int32(0); int(v) < len(s); v++ {
		if v != u {
			all = append(all, ranked{v, servedScore(s, tg, bs, bt, u, v)})
		}
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[j].Score > all[i].Score || (all[j].Score == all[i].Score && all[j].User < all[i].User) {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	return all[:k]
}

func TestCheckTopKRejectsSwappedRanks(t *testing.T) {
	m, s, tg, bs, bt := fixtureModel(t, 40, 50, 3)
	got := servedTopK(s, tg, bs, bt, 7, 10)
	for _, int8 := range []bool{false, true} {
		if err := m.checkTopK(7, 10, got, int8); err != nil {
			t.Fatalf("correct top-k rejected (int8=%v): %v", int8, err)
		}
	}
	if r := recall(got, m.bruteTopK(7, 10)); r != 1 {
		t.Fatalf("recall of the exact answer = %v, want 1", r)
	}
	swapped := append([]ranked(nil), got...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if err := m.checkTopK(7, 10, swapped, true); err == nil {
		t.Fatal("top-k with two ranks swapped accepted")
	}
	dup := append([]ranked(nil), got...)
	dup[5] = dup[4]
	if err := m.checkTopK(7, 10, dup, true); err == nil {
		t.Fatal("top-k with a duplicate accepted")
	}
	short := got[:9]
	if err := m.checkTopK(7, 10, short, true); err == nil {
		t.Fatal("top-k with nine results accepted")
	}
	if r := recall(got[1:], m.bruteTopK(7, 10)); r != 0.9 {
		t.Fatalf("recall with one result missing = %v, want 0.9", r)
	}
}

func TestCheckFreshProbeRejectsPreviousModel(t *testing.T) {
	next, s, tg, bs, bt := fixtureModel(t, 8, 50, 4)
	prev, ps, ptg, pbs, pbt := fixtureModel(t, 8, 50, 5)
	if err := checkFreshProbe(next, prev, 2, 5, servedScore(s, tg, bs, bt, 2, 5)); err != nil {
		t.Fatalf("the new model's answer rejected: %v", err)
	}
	if err := checkFreshProbe(next, prev, 2, 5, servedScore(ps, ptg, pbs, pbt, 2, 5)); err == nil {
		t.Fatal("the previous model's answer accepted")
	}
	// A publish that left the model unchanged is caught too.
	if err := checkFreshProbe(next, next, 2, 5, servedScore(s, tg, bs, bt, 2, 5)); err == nil {
		t.Fatal("an answer identical to the previous model's accepted")
	}
}

func TestCheckSeedsRejectsWrongSpread(t *testing.T) {
	// A two-level tree: user 0 reaches 1..5, each of which reaches five
	// more, so spreads vary between seed sets.
	n := 31
	adj := make([][]int32, n)
	for i := 1; i <= 5; i++ {
		adj[0] = append(adj[0], int32(i))
		for j := 0; j < 5; j++ {
			adj[i] = append(adj[i], int32(5+5*(i-1)+j+1))
		}
	}
	m, _, _, _, _ := fixtureModel(t, n, 8, 6)
	sim := newCascadeSim(adj, m, 0)
	r := rand.New(rand.NewPCG(7, 7))
	req := seedsBody{K: 2, MCRuns: 200, Candidates: []int32{0, 1, 2, 3}}
	truth, _ := sim.spread([]int32{0, 1}, 20000, r)
	first, _ := sim.spread([]int32{0}, 20000, r)
	ok := seedsAnswer{Seeds: []int32{0, 1}, Spread: []float64{first, truth}}
	if err := sim.checkSeeds(req, ok, 2000, r); err != nil {
		t.Fatalf("a correct answer rejected: %v", err)
	}
	_, sd := sim.spread([]int32{0, 1}, 20000, r)
	se := math.Sqrt(sd * sd * (1.0/200 + 1.0/2000))
	far := ok
	far.Spread = []float64{first, truth + 2*seedsZ*se}
	if err := sim.checkSeeds(req, far, 2000, r); err == nil {
		t.Fatal("a spread beyond Monte-Carlo error accepted")
	}
	for name, bad := range map[string]seedsAnswer{
		"partial":    {Seeds: ok.Seeds, Spread: ok.Spread, Partial: true},
		"cached":     {Seeds: ok.Seeds, Spread: ok.Spread, Cached: true},
		"repeated":   {Seeds: []int32{0, 0}, Spread: ok.Spread},
		"off-pool":   {Seeds: []int32{0, 9}, Spread: ok.Spread},
		"decreasing": {Seeds: ok.Seeds, Spread: []float64{truth + 1, truth}},
		"short":      {Seeds: []int32{0}, Spread: []float64{first}},
	} {
		if err := sim.checkSeeds(req, bad, 2000, r); err == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
}

func TestCheckCorpusRejectsWrongContextLength(t *testing.T) {
	// A small graph with sinks (no followers who adopt later) and sources.
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 0}, {3, 6}, {6, 7}}
	g, err := graph.FromEdges(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	l, err := actionlog.FromActions(8, []actionlog.Action{
		{User: 0, Item: 1, Time: 1}, {User: 1, Item: 1, Time: 2}, {User: 2, Item: 1, Time: 3}, {User: 7, Item: 1, Time: 4},
		{User: 4, Item: 2, Time: 1}, {User: 5, Item: 2, Time: 2},
		{User: 3, Item: 3, Time: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeGraph(filepath.Join(dir, "g.tsv"), g); err != nil {
		t.Fatal(err)
	}
	adj, err := readAdjacency(filepath.Join(dir, "g.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	const L, alpha = 10, 0.2
	cfg := core.Config{Dim: 4, ContextLength: L, Alpha: alpha, RestartRatio: 0.5, Seed: 3}
	c := core.GenerateCorpus(g, l, cfg, rng.New(3))
	if err := checkCorpus(c, adj, l, L, alpha); err != nil {
		t.Fatalf("the generated corpus rejected: %v", err)
	}
	// Influence sinks get only the global part of the context; the rest
	// get exactly L entries.
	if _, lens := expectedContextLens(adj, l, L, alpha); lens[0] != L || lens[2] != L-2 {
		t.Fatalf("expected lengths %v: want L for a source and L-2 for a sink", lens)
	}
	short := *c
	short.Tuples = append([]core.Tuple(nil), c.Tuples...)
	short.Tuples[0].Context = short.Tuples[0].Context[:L-1]
	short.NumPositives--
	if err := checkCorpus(&short, adj, l, L, alpha); err == nil {
		t.Fatal("a corpus with a context one short of L accepted")
	}
	miscount := *c
	miscount.NumPositives++
	if err := checkCorpus(&miscount, adj, l, L, alpha); err == nil {
		t.Fatal("a corpus whose positive count is off accepted")
	}
	dropped := *c
	dropped.Tuples = c.Tuples[1:]
	if err := checkCorpus(&dropped, adj, l, L, alpha); err == nil {
		t.Fatal("a corpus missing a tuple accepted")
	}
}

func TestReadRefModelRejectsCorruptFile(t *testing.T) {
	m, _, _, _, _ := fixtureModel(t, 4, 3, 8)
	raw := encodeRefModel(4, 3, make([]float32, 12), make([]float32, 12), make([]float32, 4), make([]float32, 4))
	raw[20] ^= 1
	path := filepath.Join(t.TempDir(), "m.i2v")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRefModel(path); err == nil {
		t.Fatal("a model file with a bad CRC accepted")
	}
	if m.n != 4 || m.k != 3 {
		t.Fatalf("shape %d×%d, want 4×3", m.n, m.k)
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, md, q3 := pyQuartiles(v); q1 != 2.75 || md != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, md, q3)
	}
}

// encodeRefModel writes a v2 model file; the checker tests build fixtures
// with it.
func encodeRefModel(n, k int, s, t, bs, bt []float32) []byte {
	var b bytes.Buffer
	b.WriteString("I2VEMB")
	b.Write([]byte{2, 0})
	binary.Write(&b, binary.LittleEndian, [2]int32{int32(n), int32(k)})
	for _, block := range [][]float32{s, t, bs, bt} {
		binary.Write(&b, binary.LittleEndian, block)
	}
	binary.Write(&b, binary.LittleEndian, crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}
