// DIMACS import: the 9th DIMACS Implementation Challenge road networks
// (USA-road-d.*) are the de-facto continental-scale benchmark graphs — the
// paper's experiments run on their subgraphs — and this reader turns a
// .gr/.co pair into a validated rnknn graph. cmd/gendata -dimacs-gr/-co
// drives it; cmd/README.md documents where to download the files.
package gen

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"rnknn/internal/graph"
)

// ReadDIMACS parses a DIMACS shortest-path graph (.gr: "p sp n m" then
// "a u v w" arc lines, 1-based) and its coordinate file (.co: "v id x y"
// lines) into a graph named name. Both readers may be gzip-compressed
// (detected by magic). The pair of directed arcs DIMACS uses per road
// segment collapses to one undirected edge (keeping the smaller weight if
// they disagree); the arc weight serves as both the travel-distance and
// travel-time view.
//
// Two fixups bridge the format gap to this library's invariants:
//
//   - Coordinates are scaled uniformly so every edge's Euclidean length is
//     at most its weight (graph.Validate requires it — Euclidean distance
//     must lower-bound network distance). A uniform scale preserves the
//     geometry's shape, so spatial index quality is unaffected.
//   - If the graph is not connected, the largest connected component is
//     extracted with vertex ids remapped densely (DIMACS files are usually
//     connected; trimmed regional extracts sometimes are not).
func ReadDIMACS(gr, co io.Reader, name string) (*graph.Graph, error) {
	x, y, err := readCoords(co)
	if err != nil {
		return nil, fmt.Errorf("dimacs .co: %w", err)
	}
	g, err := readArcs(gr, x, y, name)
	if err != nil {
		return nil, fmt.Errorf("dimacs .gr: %w", err)
	}
	g = largestComponent(g)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dimacs: imported graph invalid: %w", err)
	}
	return g, nil
}

// maybeGunzip wraps r in a gzip reader when it starts with the gzip magic.
func maybeGunzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic, err := br.Peek(2)
	if err == nil && len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		return zr, nil
	}
	return br, nil
}

// readCoords parses the .co file: "p aux sp co N" declares the vertex
// count, "v id x y" lines give coordinates (1-based ids). Memory grows with
// the lines read, not with N: the arrays are sized only once the file has
// listed at least N vertices.
func readCoords(r io.Reader) (x, y []float64, err error) {
	rr, err := maybeGunzip(r)
	if err != nil {
		return nil, nil, err
	}
	type coord struct {
		id   int
		x, y float64
	}
	var vs []coord
	n := 0
	sc := bufio.NewScanner(rr)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		switch line[0] {
		case 'c':
			continue
		case 'p':
			f := strings.Fields(line)
			if n != 0 {
				return nil, nil, fmt.Errorf("second problem line %q", line)
			}
			if n, err = strconv.Atoi(f[len(f)-1]); err != nil || n <= 0 {
				return nil, nil, fmt.Errorf("bad problem line %q", line)
			}
		case 'v':
			if n == 0 {
				return nil, nil, fmt.Errorf("vertex line before problem line")
			}
			f := strings.Fields(line)
			if len(f) != 4 {
				return nil, nil, fmt.Errorf("bad vertex line %q", line)
			}
			id, err1 := strconv.Atoi(f[1])
			vx, err2 := strconv.ParseFloat(f[2], 64)
			vy, err3 := strconv.ParseFloat(f[3], 64)
			if err1 != nil || err2 != nil || err3 != nil || id < 1 || id > n {
				return nil, nil, fmt.Errorf("bad vertex line %q", line)
			}
			vs = append(vs, coord{id, vx, vy})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("no problem line")
	}
	if len(vs) < n {
		return nil, nil, fmt.Errorf("problem line declares %d vertices, file lists %d", n, len(vs))
	}
	x, y = make([]float64, n), make([]float64, n)
	for _, v := range vs {
		x[v.id-1], y[v.id-1] = v.x, v.y
	}
	return x, y, nil
}

// readArcs parses the .gr file against the coordinate arrays, scales the
// coordinates so Euclidean lengths lower-bound the weights, and builds the
// undirected CSR graph.
func readArcs(r io.Reader, x, y []float64, name string) (*graph.Graph, error) {
	rr, err := maybeGunzip(r)
	if err != nil {
		return nil, err
	}
	type arc struct {
		u, v int32
		w    int32
	}
	var arcs []arc
	n := 0
	sc := bufio.NewScanner(rr)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		switch line[0] {
		case 'c':
			continue
		case 'p':
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "sp" {
				return nil, fmt.Errorf("bad problem line %q (want \"p sp n m\")", line)
			}
			var err error
			if n, err = strconv.Atoi(f[2]); err != nil || n <= 0 {
				return nil, fmt.Errorf("bad problem line %q", line)
			}
			if n != len(x) {
				return nil, fmt.Errorf("graph has %d vertices, coordinate file has %d", n, len(x))
			}
		case 'a':
			if n == 0 {
				return nil, fmt.Errorf("arc line before problem line")
			}
			f := strings.Fields(line)
			if len(f) != 4 {
				return nil, fmt.Errorf("bad arc line %q", line)
			}
			u, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.Atoi(f[2])
			w, err3 := strconv.Atoi(f[3])
			if err1 != nil || err2 != nil || err3 != nil ||
				u < 1 || u > n || v < 1 || v > n || w < 0 || w > math.MaxInt32 {
				return nil, fmt.Errorf("bad arc line %q", line)
			}
			if w == 0 {
				w = 1 // zero-weight arcs exist in some extracts; weights must be positive
			}
			arcs = append(arcs, arc{int32(u - 1), int32(v - 1), int32(w)})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("no problem line")
	}
	if len(arcs) == 0 {
		return nil, fmt.Errorf("no arcs")
	}

	// Scale coordinates by f = min(weight / euclid) so every edge satisfies
	// the Euclidean-lower-bound invariant with the tightest uniform fit
	// (a margin absorbs float rounding; zero-length and self arcs impose no
	// constraint).
	f := math.Inf(1)
	for _, a := range arcs {
		if a.u == a.v {
			continue
		}
		e := math.Hypot(x[a.u]-x[a.v], y[a.u]-y[a.v])
		if e > 0 {
			f = math.Min(f, float64(a.w)/e)
		}
	}
	if !math.IsInf(f, 1) && f > 0 {
		f *= 1 - 1e-9
		for i := range x {
			x[i] *= f
			y[i] *= f
		}
	}

	b := graph.NewBuilder(n, x, y)
	for _, a := range arcs {
		b.AddEdge(a.u, a.v, a.w, a.w)
	}
	return b.Build(name), nil
}

// largestComponent returns g if connected, otherwise the subgraph induced
// by its largest connected component with vertices renumbered densely in
// ascending original id.
func largestComponent(g *graph.Graph) *graph.Graph {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var sizes []int
	queue := make([]int32, 0, n)
	for s := int32(0); int(s) < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(sizes))
		comp[s] = id
		queue = append(queue[:0], s)
		size := 0
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
				if v := g.Targets[i]; comp[v] < 0 {
					comp[v] = id
					queue = append(queue, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	if len(sizes) == 1 {
		return g
	}
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	remap := make([]int32, n)
	var x, y []float64
	next := int32(0)
	for v := 0; v < n; v++ {
		if comp[v] == int32(best) {
			remap[v] = next
			next++
			x = append(x, g.X[v])
			y = append(y, g.Y[v])
		} else {
			remap[v] = -1
		}
	}
	b := graph.NewBuilder(int(next), x, y)
	for u := int32(0); int(u) < n; u++ {
		if remap[u] < 0 {
			continue
		}
		for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
			if v := g.Targets[i]; u < v {
				b.AddEdge(remap[u], remap[v], g.DistW[i], g.TimeW[i])
			}
		}
	}
	return b.Build(g.Name)
}
