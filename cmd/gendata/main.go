// Command gendata generates the synthetic dataset ladder and prints its
// statistics (the Table 1 / Table 2 analogues), for inspecting what the
// experiment harness runs on.
//
// It also imports real road networks from the 9th DIMACS Implementation
// Challenge (see cmd/README.md for download instructions):
//
//	gendata -dimacs-gr USA-road-d.NY.gr.gz -dimacs-co USA-road-d.NY.co.gz -o NY.rnks
//
// The written file is a graph-only snapshot (docs/SNAPSHOT_FORMAT.md), the
// one file format this system reads or writes. It feeds buildindex -graph
// and from there the sharded serving path.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rnknn/internal/cliutil"
	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
)

func main() {
	var (
		name     = flag.String("network", "", "single ladder network to describe (default: all)")
		pois     = flag.Bool("pois", false, "also list POI categories per network")
		dimacsGr = flag.String("dimacs-gr", "", "DIMACS .gr[.gz] graph file to import (with -dimacs-co and -o)")
		dimacsCo = flag.String("dimacs-co", "", "DIMACS .co[.gz] coordinate file to import")
		outPath  = flag.String("o", "", "output .rnks graph-only snapshot for -dimacs import")
		outName  = flag.String("name", "", "graph name for -dimacs import (default: output file base name)")
	)
	flag.Parse()

	if *dimacsGr != "" || *dimacsCo != "" {
		if *dimacsGr == "" || *dimacsCo == "" || *outPath == "" {
			cliutil.UsageExit("", "-dimacs-gr, -dimacs-co, and -o must be given together")
		}
		start := time.Now()
		g, err := importDIMACS(*dimacsGr, *dimacsCo, *outPath, *outName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dimacs:", err)
			os.Exit(1)
		}
		fmt.Printf("imported %s: |V|=%d |E|=%d in %s -> %s\n",
			g.Name, g.NumVertices(), g.NumEdges()/2, time.Since(start).Round(time.Millisecond), *outPath)
		return
	}

	specs := gen.Ladder()
	if *name != "" {
		spec, ok := gen.LadderSpec(*name)
		if !ok {
			cliutil.UsageExit("", "unknown network %q; ladder: %v", *name, names(specs))
		}
		specs = []gen.NetworkSpec{spec}
	}
	fmt.Printf("%-5s %10s %10s %12s %12s\n", "name", "|V|", "|E|", "deg<=2", "fast edges")
	for _, spec := range specs {
		g := gen.Network(spec)
		fmt.Printf("%-5s %10d %10d %11.1f%% %11.1f%%\n",
			spec.Name, g.NumVertices(), g.NumEdges()/2,
			g.ChainFraction()*100, fastEdgeFraction(g)*100)
		if *pois {
			for _, c := range gen.POICategories(g, 42) {
				fmt.Println("   ", gen.Describe(c.Name, g, c.Vertices))
			}
		}
	}
}

// importDIMACS converts a DIMACS .gr/.co pair to a graph-only snapshot at
// outPath and returns the graph. The name defaults to outPath's base name
// without its .rnks extension.
func importDIMACS(grPath, coPath, outPath, name string) (*graph.Graph, error) {
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(outPath), ".rnks")
	}
	grF, err := os.Open(grPath)
	if err != nil {
		return nil, err
	}
	defer grF.Close()
	coF, err := os.Open(coPath)
	if err != nil {
		return nil, err
	}
	defer coF.Close()
	g, err := gen.ReadDIMACS(grF, coF, name)
	if err != nil {
		return nil, err
	}
	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	if err := core.New(g).SaveIndexes(out); err != nil {
		out.Close()
		return nil, err
	}
	return g, out.Close()
}

// fastEdgeFraction reports the share of edges faster than local speed
// (travel time below distance*timeScale/1.5), the highway/arterial tier.
func fastEdgeFraction(g *graph.Graph) float64 {
	fast := 0
	for i := range g.DistW {
		if float64(g.TimeW[i]) < float64(g.DistW[i])*4.0/1.5 {
			fast++
		}
	}
	return float64(fast) / float64(len(g.DistW))
}

func names(specs []gen.NetworkSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
