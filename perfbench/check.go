package main

// Correctness checkers. Each recomputes the expected answer from the input
// files alone — its own model-file reader, its own float64 arithmetic, its
// own cascade simulator — so a fault anywhere on the serving or training
// path shows as a mismatch instead of being reproduced by the check.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/core"
)

// refModel is an fp32 model file (format v1/v2) decoded into float64.
type refModel struct {
	n, k   int
	s, t   []float64 // row-major n×k source and target embeddings
	bs, bt []float64
	crc    uint32 // CRC-32 of the file body, the value /debug/statz reports

	// maxAbsS/T are per-row max |coordinate|, which size the int8 error
	// bound.
	maxAbsS, maxAbsT []float64
}

func readRefModel(path string) (*refModel, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseRefModel(raw)
}

func parseRefModel(raw []byte) (*refModel, error) {
	if len(raw) < 16 || string(raw[:6]) != "I2VEMB" {
		return nil, errors.New("not a model file")
	}
	version := raw[6]
	body := raw
	switch version {
	case 1:
	case 2:
		if len(raw) < 20 {
			return nil, errors.New("truncated model file")
		}
		body = raw[:len(raw)-4]
		if want := binary.LittleEndian.Uint32(raw[len(raw)-4:]); crc32.ChecksumIEEE(body) != want {
			return nil, errors.New("model file CRC mismatch")
		}
	default:
		return nil, fmt.Errorf("model format v%d is not an fp32 file", version)
	}
	n := int(int32(binary.LittleEndian.Uint32(body[8:])))
	k := int(int32(binary.LittleEndian.Uint32(body[12:])))
	if n <= 0 || k <= 0 || len(body) != 16+4*(2*n*k+2*n) {
		return nil, fmt.Errorf("model shape %d×%d does not match %d bytes", n, k, len(body))
	}
	floats := func(off, count int) []float64 {
		out := make([]float64, count)
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[off+4*i:])))
		}
		return out
	}
	m := &refModel{n: n, k: k, crc: crc32.ChecksumIEEE(body)}
	m.s = floats(16, n*k)
	m.t = floats(16+4*n*k, n*k)
	m.bs = floats(16+8*n*k, n)
	m.bt = floats(16+8*n*k+4*n, n)
	m.fillMaxAbs()
	return m, nil
}

func (m *refModel) fillMaxAbs() {
	rowMax := func(x []float64) []float64 {
		out := make([]float64, m.n)
		for u := 0; u < m.n; u++ {
			for _, c := range x[u*m.k : (u+1)*m.k] {
				out[u] = math.Max(out[u], math.Abs(c))
			}
		}
		return out
	}
	m.maxAbsS, m.maxAbsT = rowMax(m.s), rowMax(m.t)
}

// score is x(u,v) = S_u·T_v + b_u + b̃_v in float64, with the magnitude sum
// Σ|S_ui·T_vi| that bounds float32 rounding of the served value.
func (m *refModel) score(u, v int32) (x, mag float64) {
	su, tv := m.s[int(u)*m.k:int(u+1)*m.k], m.t[int(v)*m.k:int(v+1)*m.k]
	for i, a := range su {
		x += a * tv[i]
		mag += math.Abs(a * tv[i])
	}
	return x + m.bs[u] + m.bt[v], mag
}

// fp32Tol bounds |served − exact| for a score computed with float32 products
// and sums: k rounding steps of at most 2^-24 relative each, doubled for
// slack, plus the float32 biases.
func (m *refModel) fp32Tol(u, v int32, mag float64) float64 {
	return 2*float64(m.k+2)*0x1p-24*(mag+math.Abs(m.bs[u])+math.Abs(m.bt[v])) + 1e-12
}

// int8Tol is the per-pair bound of DESIGN.md §12 for a model quantized at
// load, d·e·(2·max|coord| + e), with e the worst rounding error of the two
// rows' symmetric per-row int8 codes (half a quantization step,
// maxabs/127/2), plus float32 rounding.
func (m *refModel) int8Tol(u, v int32, mag float64) float64 {
	e := math.Max(m.maxAbsS[u], m.maxAbsT[v]) / 127 / 2
	c := math.Max(m.maxAbsS[u], m.maxAbsT[v])
	return float64(m.k)*e*(2*c+e) + m.fp32Tol(u, v, mag)
}

func (m *refModel) inRange(u int32) bool { return u >= 0 && int(u) < m.n }

// checkScore checks one /v1/score answer.
func (m *refModel) checkScore(u, v int32, gotU, gotV int32, got float64, int8 bool) error {
	if gotU != u || gotV != v {
		return fmt.Errorf("score(%d,%d): answer is for (%d,%d)", u, v, gotU, gotV)
	}
	want, mag := m.score(u, v)
	tol := m.fp32Tol(u, v, mag)
	if int8 {
		tol = m.int8Tol(u, v, mag)
	}
	if d := math.Abs(got - want); !(d <= tol) {
		return fmt.Errorf("score(%d,%d) = %.9g, want %.9g ± %.3g", u, v, got, want, tol)
	}
	return nil
}

// checkActivation checks one /v1/activation answer: the Eq. 7 aggregate of
// the pair scores from every active user onto the candidate.
func (m *refModel) checkActivation(active []int32, cand int32, agg string, got float64) error {
	if len(active) == 0 {
		return errors.New("activation: empty active set")
	}
	var want, tol float64
	switch agg {
	case "ave", "sum":
		for _, u := range active {
			x, mag := m.score(u, cand)
			want += x
			tol += m.fp32Tol(u, cand, mag)
		}
		if agg == "ave" {
			want /= float64(len(active))
			tol /= float64(len(active))
		}
	case "max":
		want = math.Inf(-1)
		for _, u := range active {
			x, mag := m.score(u, cand)
			want = math.Max(want, x)
			tol = math.Max(tol, m.fp32Tol(u, cand, mag))
		}
	default:
		return fmt.Errorf("activation: aggregator %q not checked", agg)
	}
	if d := math.Abs(got - want); !(d <= tol) {
		return fmt.Errorf("activation(%v→%d, %s) = %.9g, want %.9g ± %.3g", active, cand, agg, got, want, tol)
	}
	return nil
}

// ranked is one entry of a /v1/topk answer.
type ranked struct {
	User  int32   `json:"user"`
	Score float64 `json:"score"`
}

// checkTopK checks one /v1/topk answer for source u: k distinct in-range
// users other than u, ordered by the served score descending then user ID
// ascending, each carrying its exact score within the int8 (or fp32)
// bound.
func (m *refModel) checkTopK(u int32, k int, got []ranked, int8 bool) error {
	if want := min(k, m.n-1); len(got) != want {
		return fmt.Errorf("topk(%d): %d results, want %d", u, len(got), want)
	}
	seen := make(map[int32]bool, len(got))
	for i, r := range got {
		if !m.inRange(r.User) || r.User == u {
			return fmt.Errorf("topk(%d): result %d is user %d", u, i, r.User)
		}
		if seen[r.User] {
			return fmt.Errorf("topk(%d): user %d listed twice", u, r.User)
		}
		seen[r.User] = true
		if i > 0 {
			p := got[i-1]
			if p.Score < r.Score || (p.Score == r.Score && p.User > r.User) {
				return fmt.Errorf("topk(%d): ranks %d and %d out of order (%d:%.9g before %d:%.9g)",
					u, i-1, i, p.User, p.Score, r.User, r.Score)
			}
		}
		if err := m.checkScore(u, r.User, u, r.User, r.Score, int8); err != nil {
			return fmt.Errorf("topk: %w", err)
		}
	}
	return nil
}

// bruteTopK ranks every user other than u by exact score.
func (m *refModel) bruteTopK(u int32, k int) []int32 {
	type cand struct {
		v int32
		x float64
	}
	best := make([]cand, 0, k+1)
	for v := int32(0); int(v) < m.n; v++ {
		if v == u {
			continue
		}
		x, _ := m.score(u, v)
		if len(best) == k && !(x > best[k-1].x || (x == best[k-1].x && v < best[k-1].v)) {
			continue
		}
		i := sort.Search(len(best), func(i int) bool {
			return best[i].x < x || (best[i].x == x && best[i].v > v)
		})
		best = append(best, cand{})
		copy(best[i+1:], best[i:])
		best[i] = cand{v, x}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]int32, len(best))
	for i, c := range best {
		out[i] = c.v
	}
	return out
}

// recall is |got ∩ want| / |want|.
func recall(got []ranked, want []int32) float64 {
	if len(want) == 0 {
		return 1
	}
	in := make(map[int32]bool, len(got))
	for _, r := range got {
		in[r.User] = true
	}
	hit := 0
	for _, v := range want {
		if in[v] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// cascadeSim is an independent-cascade simulator over the graph file with
// edge probabilities σ(x(u,v) + offset) from a reference model — the
// serving layer's logistic link, recomputed here without its code.
type cascadeSim struct {
	out  [][]int32
	prob [][]float64
}

func newCascadeSim(adj [][]int32, m *refModel, offset float64) *cascadeSim {
	c := &cascadeSim{out: adj, prob: make([][]float64, len(adj))}
	for u, vs := range adj {
		c.prob[u] = make([]float64, len(vs))
		for i, v := range vs {
			x := -50.0 // users outside the model never propagate
			if u < m.n && int(v) < m.n {
				x, _ = m.score(int32(u), v)
			}
			c.prob[u][i] = 1 / (1 + math.Exp(-(x + offset)))
		}
	}
	return c
}

// spread returns the mean and standard deviation of the number of users a
// cascade from seeds activates, over runs simulations.
func (c *cascadeSim) spread(seeds []int32, runs int, r *rand.Rand) (mean, sd float64) {
	active := make([]bool, len(c.out))
	var frontier, touched []int32
	var sum, sumSq float64
	for run := 0; run < runs; run++ {
		frontier, touched = frontier[:0], touched[:0]
		for _, s := range seeds {
			if !active[s] {
				active[s] = true
				frontier = append(frontier, s)
				touched = append(touched, s)
			}
		}
		for len(frontier) > 0 {
			u := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for i, v := range c.out[u] {
				if !active[v] && r.Float64() < c.prob[u][i] {
					active[v] = true
					frontier = append(frontier, v)
					touched = append(touched, v)
				}
			}
		}
		n := float64(len(touched))
		sum += n
		sumSq += n * n
		for _, v := range touched {
			active[v] = false
		}
	}
	mean = sum / float64(runs)
	return mean, math.Sqrt(math.Max(0, sumSq/float64(runs)-mean*mean))
}

// seedsZ is how many combined standard errors a served spread may sit from
// the benchmark's own estimate. CELF reports the estimate that won the
// selection, which the maximum over noisy marginal gains biases upward, so
// the bound is wider than a plain two-sample test.
const seedsZ = 6

// seedsAnswer is the /v1/seeds response shape.
type seedsAnswer struct {
	Seeds   []int32   `json:"seeds"`
	Spread  []float64 `json:"spread"`
	Partial bool      `json:"partial"`
	Cached  bool      `json:"cached"`
}

// checkSeeds checks one /v1/seeds answer for a request of k seeds from a
// candidate pool, each spread estimated over mcRuns simulations.
func (c *cascadeSim) checkSeeds(req seedsBody, ans seedsAnswer, runs int, r *rand.Rand) error {
	if ans.Partial {
		return errors.New("seeds: partial answer")
	}
	if ans.Cached {
		return errors.New("seeds: answered from the result cache; requests must be distinct")
	}
	if len(ans.Seeds) != req.K || len(ans.Spread) != req.K {
		return fmt.Errorf("seeds: %d seeds and %d spreads, want %d", len(ans.Seeds), len(ans.Spread), req.K)
	}
	pool := make(map[int32]bool, len(req.Candidates))
	for _, u := range req.Candidates {
		pool[u] = true
	}
	seen := make(map[int32]bool, req.K)
	for i, u := range ans.Seeds {
		if u < 0 || int(u) >= len(c.out) || !pool[u] || seen[u] {
			return fmt.Errorf("seeds: seed %d (%d) is out of range, outside the pool or repeated", i, u)
		}
		seen[u] = true
		if i > 0 && ans.Spread[i] < ans.Spread[i-1] {
			return fmt.Errorf("seeds: spread decreases at %d: %v", i, ans.Spread)
		}
	}
	want, sd := c.spread(ans.Seeds, runs, r)
	se := math.Sqrt(sd*sd/float64(req.runs()) + sd*sd/float64(runs))
	if got := ans.Spread[req.K-1]; math.Abs(got-want) > seedsZ*se+1e-9 {
		return fmt.Errorf("seeds %v: served spread %.2f, simulated %.2f ± %.2f (σ/√n)", ans.Seeds, got, want, se)
	}
	return nil
}

// readAdjacency parses an edge-list file into out-neighbour lists.
func readAdjacency(path string) ([][]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var adj [][]int32
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			return nil, fmt.Errorf("edge list: bad line %q", line)
		}
		u, err1 := strconv.Atoi(fs[0])
		v, err2 := strconv.Atoi(fs[1])
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, fmt.Errorf("edge list: bad line %q", line)
		}
		for len(adj) <= max(u, v) {
			adj = append(adj, nil)
		}
		adj[u] = append(adj[u], int32(v))
	}
	return adj, sc.Err()
}

// expectedContextLens recomputes, from the graph and the training log
// alone, the context length Algorithm 1 gives every tuple of the corpus, in
// corpus order: L·α local entries (rounded) for an adopter with a later
// adopter among its followers, none for an influence sink, plus L − L·α
// global entries whenever the episode has another adopter. Adopters whose
// context would be empty produce no tuple.
func expectedContextLens(adj [][]int32, l *actionlog.Log, L int, alpha float64) (centers []int32, lens []int) {
	local := int(float64(L)*alpha + 0.5)
	global := L - local
	for i := 0; i < l.NumEpisodes(); i++ {
		ep := l.Episode(i)
		when := make(map[int32]float64, ep.Len())
		for _, r := range ep.Records {
			when[r.User] = r.Time
		}
		for _, r := range ep.Records {
			n := 0
			for _, v := range adjOf(adj, r.User) {
				if tv, ok := when[v]; ok && r.Time < tv {
					n = local
					break
				}
			}
			if ep.Len() > 1 {
				n += global
			}
			if n > 0 {
				centers = append(centers, r.User)
				lens = append(lens, n)
			}
		}
	}
	return centers, lens
}

func adjOf(adj [][]int32, u int32) []int32 {
	if int(u) < len(adj) {
		return adj[u]
	}
	return nil
}

// checkCorpus checks a generated corpus tuple by tuple against
// expectedContextLens, and its positive count against their sum.
func checkCorpus(c *core.Corpus, adj [][]int32, l *actionlog.Log, L int, alpha float64) error {
	centers, lens := expectedContextLens(adj, l, L, alpha)
	if len(c.Tuples) != len(lens) {
		return fmt.Errorf("corpus: %d tuples, want %d", len(c.Tuples), len(lens))
	}
	var positives int64
	for i, t := range c.Tuples {
		if t.Center != centers[i] || len(t.Context) != lens[i] {
			return fmt.Errorf("corpus: tuple %d is (center %d, %d context entries), want (%d, %d)",
				i, t.Center, len(t.Context), centers[i], lens[i])
		}
		positives += int64(lens[i])
	}
	if c.NumPositives != positives {
		return fmt.Errorf("corpus: %d positives, want %d", c.NumPositives, positives)
	}
	return nil
}

// checkFreshProbe checks that the probe pair's served score is the one the
// newly published model gives and not the previous model's.
func checkFreshProbe(next, prev *refModel, u, v int32, got float64) error {
	if err := next.checkScore(u, v, u, v, got, false); err != nil {
		return fmt.Errorf("after publish: %w", err)
	}
	old, mag := prev.score(u, v)
	if math.Abs(got-old) <= prev.fp32Tol(u, v, mag) {
		return fmt.Errorf("after publish: score(%d,%d) = %.9g is still the previous model's", u, v, got)
	}
	return nil
}
