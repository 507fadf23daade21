// Package gen generates the synthetic road networks and object sets used by
// the experiment harness. It substitutes for the paper's DIMACS road
// networks and OpenStreetMap POI extracts: the networks are planar,
// connected, perturbed grids with a highway tier (so travel-time graphs
// exhibit the hierarchy PHL/CH/TNR exploit) and a configurable fraction of
// degree-2 chain vertices (matching the degree statistics the paper
// reports).
package gen

import (
	"math"
	"math/rand"

	"rnknn/internal/graph"
)

// NetworkSpec parameterizes a synthetic road network.
type NetworkSpec struct {
	Name string
	// Rows and Cols give the underlying grid before subdivision.
	Rows, Cols int
	// Spacing is the grid cell size in coordinate units (default 1000).
	Spacing float64
	// Jitter is the fraction of Spacing by which vertex positions are
	// perturbed (default 0.3).
	Jitter float64
	// ExtraEdgeProb is the probability of keeping each non-spanning-tree
	// grid edge (default 0.55), controlling how grid-like the network is.
	ExtraEdgeProb float64
	// ChainSubdivide is the probability that an edge is subdivided into a
	// degree-2 chain (default 0.35, yielding roughly the paper's ~30%
	// degree<=2 vertices). ChainLen is the number of interior vertices each
	// subdivided edge receives (default 1..2 random; set >0 to fix).
	ChainSubdivide float64
	ChainLen       int
	// HighwayEvery marks every n-th grid row/column as a highway with
	// higher speed (default 8). Zero disables highways.
	HighwayEvery int
	// Seed makes generation deterministic.
	Seed int64
}

func (s NetworkSpec) withDefaults() NetworkSpec {
	if s.Spacing == 0 {
		s.Spacing = 1000
	}
	if s.Jitter == 0 {
		s.Jitter = 0.3
	}
	if s.ExtraEdgeProb == 0 {
		s.ExtraEdgeProb = 0.55
	}
	if s.ChainSubdivide == 0 {
		s.ChainSubdivide = 0.35
	}
	if s.HighwayEvery == 0 {
		s.HighwayEvery = 8
	}
	return s
}

// Speed tiers for travel-time weights. Travel time = distance / speed, so a
// higher tier means proportionally smaller time weights; highways therefore
// attract shortest travel-time paths, giving the graph the "prominent
// hierarchy" the paper observes on travel-time networks (Section 7.2, B.1).
const (
	speedLocal    = 1.0
	speedArterial = 2.0
	speedHighway  = 4.5
	// timeScale keeps integer time weights well resolved.
	timeScale = 4.0
)

// Network generates a connected road network per spec. The produced graph's
// travel-distance weights always upper-bound the Euclidean distance between
// endpoints, so Euclidean distance is a valid kNN lower bound, as on real
// travel-distance road networks.
func Network(spec NetworkSpec) *graph.Graph {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	rows, cols := spec.Rows, spec.Cols
	n := rows * cols
	x := make([]float64, 0, n*2)
	y := make([]float64, 0, n*2)
	vid := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			jx := (rng.Float64()*2 - 1) * spec.Jitter * spec.Spacing
			jy := (rng.Float64()*2 - 1) * spec.Jitter * spec.Spacing
			x = append(x, float64(c)*spec.Spacing+jx)
			y = append(y, float64(r)*spec.Spacing+jy)
		}
	}

	type cand struct {
		u, v  int32
		speed float64
	}
	var cands []cand
	speedOf := func(r1, c1, r2, c2 int) float64 {
		he := spec.HighwayEvery
		if he > 0 {
			if r1 == r2 && r1%he == 0 {
				return speedHighway
			}
			if c1 == c2 && c1%he == 0 {
				return speedHighway
			}
			if r1 == r2 && r1%(he/2+1) == 0 {
				return speedArterial
			}
			if c1 == c2 && c1%(he/2+1) == 0 {
				return speedArterial
			}
		}
		return speedLocal
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				cands = append(cands, cand{vid(r, c), vid(r, c+1), speedOf(r, c, r, c+1)})
			}
			if r+1 < rows {
				cands = append(cands, cand{vid(r, c), vid(r+1, c), speedOf(r, c, r+1, c)})
			}
			// Occasional diagonals break up the pure grid structure.
			if r+1 < rows && c+1 < cols && rng.Float64() < 0.08 {
				cands = append(cands, cand{vid(r, c), vid(r+1, c+1), speedLocal})
			}
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

	// Spanning tree via union-find guarantees connectivity; extra edges are
	// kept with ExtraEdgeProb.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	type edge struct {
		u, v  int32
		speed float64
	}
	var kept []edge
	for _, e := range cands {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
			kept = append(kept, edge{e.u, e.v, e.speed})
		} else if e.speed > speedLocal || rng.Float64() < spec.ExtraEdgeProb {
			// Highways and arterials are always kept so they form long
			// continuous corridors.
			kept = append(kept, edge{e.u, e.v, e.speed})
		}
	}

	// Subdivide a fraction of local edges into degree-2 chains.
	type finalEdge struct {
		u, v  int32
		speed float64
	}
	var finals []finalEdge
	addVertex := func(px, py float64) int32 {
		x = append(x, px)
		y = append(y, py)
		return int32(len(x) - 1)
	}
	for _, e := range kept {
		segs := 1
		if rng.Float64() < spec.ChainSubdivide {
			if spec.ChainLen > 0 {
				segs = spec.ChainLen + 1
			} else {
				segs = 2 + rng.Intn(2)
			}
		}
		if segs == 1 {
			finals = append(finals, finalEdge{e.u, e.v, e.speed})
			continue
		}
		prev := e.u
		for s := 1; s < segs; s++ {
			t := float64(s) / float64(segs)
			// Interpolate with a small perpendicular wiggle so chains model
			// road curvature; the wiggle keeps weights above Euclidean.
			px := x[e.u] + (x[e.v]-x[e.u])*t
			py := y[e.u] + (y[e.v]-y[e.u])*t
			wig := spec.Spacing * 0.05 * (rng.Float64()*2 - 1)
			mid := addVertex(px+wig, py-wig)
			finals = append(finals, finalEdge{prev, mid, e.speed})
			prev = mid
		}
		finals = append(finals, finalEdge{prev, e.v, e.speed})
	}

	b := graph.NewBuilder(len(x), x, y)
	for _, e := range finals {
		de := math.Hypot(x[e.u]-x[e.v], y[e.u]-y[e.v])
		detour := 1.0 + 0.25*rng.Float64()
		dw := int32(math.Ceil(de * detour))
		if dw < 1 {
			dw = 1
		}
		tw := int32(math.Max(1, math.Round(float64(dw)*timeScale/e.speed)))
		b.AddEdge(e.u, e.v, dw, tw)
	}
	return b.Build(spec.Name)
}

// HighwayNetwork generates a network in which ~95% of vertices have degree 2,
// modelling the NA-HWY highway-only dataset of Appendix A.1.2 (Figure 20):
// a sparse grid whose every edge is subdivided into a long chain.
func HighwayNetwork(name string, rows, cols int, seed int64) *graph.Graph {
	return Network(NetworkSpec{
		Name:           name,
		Rows:           rows,
		Cols:           cols,
		Spacing:        12000,
		ExtraEdgeProb:  0.25,
		ChainSubdivide: 1.0,
		ChainLen:       18,
		HighwayEvery:   4,
		Seed:           seed,
	})
}

// Ladder returns the standard dataset ladder used by the experiment harness,
// a scaled-down analogue of the paper's Table 1 (names keep the paper's
// regional mnemonics). Index i grows |V| roughly 2x per step.
func Ladder() []NetworkSpec {
	mk := func(name string, rows, cols int, seed int64) NetworkSpec {
		return NetworkSpec{Name: name, Rows: rows, Cols: cols, Seed: seed}
	}
	// Each comment gives |V| after the chain vertices are added.
	return []NetworkSpec{
		mk("DE", 24, 30, 1),   // 1,389
		mk("VT", 34, 42, 2),   // 2,709
		mk("ME", 48, 60, 3),   // 5,479
		mk("CO", 68, 84, 4),   // 10,839
		mk("NW", 96, 120, 5),  // 21,825 (default medium network)
		mk("CA", 136, 168, 6), // 43,849
		mk("E", 192, 240, 7),  // 87,665
		mk("US", 272, 340, 8), // 176,597 (default large network)
	}
}

// LadderSpec returns the spec with the given name from Ladder, or false.
func LadderSpec(name string) (NetworkSpec, bool) {
	for _, s := range Ladder() {
		if s.Name == name {
			return s, true
		}
	}
	return NetworkSpec{}, false
}
