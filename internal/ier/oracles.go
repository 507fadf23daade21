package ier

import (
	"rnknn/internal/dijkstra"
	"rnknn/internal/graph"
	"rnknn/internal/knn"
)

// DijkstraFactory is the original IER oracle (Figure 4 "Dijk"): a suspended,
// resumable Dijkstra expansion per query vertex. Resumption means subsequent
// candidate distances from the same source reuse earlier expansion work, and
// the factory caches one resumable search so consecutive queries from the
// same session reuse its stamped arrays and heap backing too.
//
// A factory is single-session state (like the IER instance holding it):
// create one per session, not one shared across goroutines.
type DijkstraFactory struct {
	G *graph.Graph

	r *dijkstra.Resumable
}

// Name implements knn.SourceFactory.
func (f *DijkstraFactory) Name() string { return "Dijk" }

// NewSource implements knn.SourceFactory.
func (f *DijkstraFactory) NewSource(s int32) knn.SourceOracle {
	if f.r == nil {
		f.r = dijkstra.NewResumable(f.G, s)
	} else {
		f.r.Reset(s)
	}
	return f.r
}

// OracleFactory adapts a point-to-point DistanceOracle with no per-source
// state to exploit (CH, TNR) to the per-source interface IER consumes; PHL
// pins its source instead (phl.Source). The bound-source wrapper is cached
// on the factory, so handing out a source is allocation-free; like
// DijkstraFactory, a factory serves one session at a time.
type OracleFactory struct {
	Oracle knn.DistanceOracle

	src boundOracle
}

// Name implements knn.SourceFactory.
func (f *OracleFactory) Name() string { return f.Oracle.Name() }

// NewSource implements knn.SourceFactory.
func (f *OracleFactory) NewSource(s int32) knn.SourceOracle {
	f.src = boundOracle{f.Oracle, s}
	return &f.src
}

type boundOracle struct {
	o knn.DistanceOracle
	s int32
}

func (b *boundOracle) DistanceTo(t int32) graph.Dist { return b.o.Distance(b.s, t) }
