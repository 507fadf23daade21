package rnknn

import "rnknn/internal/graph"

// The graph construction surface, re-exported so external importers (which
// cannot reach internal/ packages) can build road networks.
// In-module code may keep using internal/graph and internal/gen directly.

// GraphBuilder accumulates undirected edges and produces a Graph in CSR
// form: create one with NewGraphBuilder, AddEdge each road segment with its
// travel-distance and travel-time weights, then Build.
type GraphBuilder = graph.Builder

// WeightKind selects which weight a Graph view exposes (TravelDistance or
// TravelTime); switch views with Graph.View.
type WeightKind = graph.WeightKind

// The two weight kinds of the paper's evaluation (Section 7.5).
const (
	TravelDistance = graph.TravelDistance
	TravelTime     = graph.TravelTime
)

// NewGraphBuilder creates a builder for n vertices with the given
// coordinates (one x,y pair per vertex, used for the Euclidean lower
// bounds of IER and DisBrw).
func NewGraphBuilder(n int, x, y []float64) *GraphBuilder {
	return graph.NewBuilder(n, x, y)
}
