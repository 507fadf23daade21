// Command buildindex pre-builds road-network indexes and writes them as one
// snapshot file, so serving processes warm-start with rnknn.OpenFromSnapshot
// (or rnknn.WithIndexCache) instead of paying construction on every start.
//
//	buildindex -network NW -methods IER-PHL,Gtree -o nw.rnks
//	buildindex -network DE -methods all -verify
//
// Snapshots are self-contained (graph included), so rnknn.OpenSnapshotFile
// and rnknnd -snapshot open them zero-copy with no other input. Two more
// modes feed the continental-scale path:
//
//	buildindex -graph NY.rnks -methods Gtree -o ny.rnks       # a gendata -dimacs import
//	buildindex -network DE -shards 4 -o de-shards -verify     # a shard set for rnknnd -shards
//
// The snapshot format is specified in docs/SNAPSHOT_FORMAT.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"rnknn/internal/cliutil"
	"rnknn/internal/core"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/pkg/rnknn"
)

func main() {
	var (
		network   = flag.String("network", "NW", "ladder network name")
		graphFile = flag.String("graph", "", "read the road network from a .rnks snapshot's graph (see gendata -dimacs-gr) instead of -network")
		methods   = flag.String("methods", "IER-PHL,Gtree", "comma-separated method names whose indexes to build, or 'all'")
		out       = flag.String("o", "", "output snapshot path (default <network>.rnks); with -shards, the shard set directory (default <network>-shards)")
		timeW     = flag.Bool("traveltime", false, "use travel-time weights")
		shards    = flag.Int("shards", 0, "emit a shard set for rnknn.OpenSharded / rnknnd -shards instead of a single snapshot")
		verify    = flag.Bool("verify", false, "re-open what was written and check every index loads")
	)
	flag.Parse()
	var ms []rnknn.Method
	if *methods == "all" {
		ms = rnknn.Methods()
	} else {
		for _, name := range strings.Split(*methods, ",") {
			m, err := rnknn.ParseMethod(strings.TrimSpace(name))
			if err != nil {
				usageExit("%v", err)
			}
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		usageExit("-methods selected no methods")
	}

	var g *graph.Graph
	if *graphFile != "" {
		var err error
		if g, err = loadGraph(*graphFile); err != nil {
			fmt.Fprintln(os.Stderr, "graph:", err)
			os.Exit(1)
		}
	} else {
		spec, ok := gen.LadderSpec(*network)
		if !ok {
			usageExit("unknown network %q", *network)
		}
		g = gen.Network(spec)
	}
	if *timeW {
		g = g.View(graph.TravelTime)
	}
	path := *out
	if path == "" {
		path = g.Name + ".rnks"
		if *shards > 0 {
			path = g.Name + "-shards"
		}
	}
	fmt.Printf("network %s: |V|=%d |E|=%d (%s weights)\n", g.Name, g.NumVertices(), g.NumEdges()/2, g.Kind)

	start := time.Now()
	db, err := rnknn.Open(g, rnknn.WithMethods(ms...))
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	fmt.Printf("built %d method(s) in %s\n", len(ms), time.Since(start).Round(time.Millisecond))
	printIndexes(db.Stats())

	if *shards > 0 {
		start = time.Now()
		if err := db.SaveShardSet(path, *shards); err != nil {
			fmt.Fprintln(os.Stderr, "save shards:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d-shard set %s in %s\n", *shards, path, time.Since(start).Round(time.Millisecond))
		if *verify {
			start = time.Now()
			sdb, err := rnknn.OpenSharded(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "verify:", err)
				os.Exit(1)
			}
			defer sdb.Close()
			requireLoaded(sdb.Stats())
			fmt.Printf("verify: opened %d shards (zero-copy) in %s\n", sdb.NumShards(), time.Since(start).Round(time.Millisecond))
		}
		return
	}

	start = time.Now()
	if err := db.SaveIndexesFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "save:", err)
		os.Exit(1)
	}
	info, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stat:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d bytes) in %s\n", path, info.Size(), time.Since(start).Round(time.Millisecond))

	if *verify {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "verify:", err)
			os.Exit(1)
		}
		defer f.Close()
		start = time.Now()
		db2, err := rnknn.OpenFromSnapshot(g, f, rnknn.WithMethods(ms...))
		if err != nil {
			fmt.Fprintln(os.Stderr, "verify:", err)
			os.Exit(1)
		}
		requireLoaded(db2.Stats())
		fmt.Printf("verify: reloaded every index in %s\n", time.Since(start).Round(time.Millisecond))
	}
}

// loadGraph reads the graph of a snapshot — typically the graph-only one
// gendata -dimacs-gr writes — on the verified path (checksums and the
// structural scan), then runs the full Validate: positive, symmetric
// weights never below the Euclidean distance, which IER's lower bound
// relies on.
func loadGraph(path string) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, _, err := core.LoadGraphData(data, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%s: invalid graph: %w", path, err)
	}
	return g, nil
}

// requireLoaded exits unless every index of a re-opened DB came from the
// snapshot.
func requireLoaded(s rnknn.Stats) {
	for name, ix := range s.Indexes {
		if !ix.Loaded {
			fmt.Fprintf(os.Stderr, "verify: index %s was rebuilt, not loaded\n", name)
			os.Exit(1)
		}
	}
}

func printIndexes(s rnknn.Stats) {
	names := make([]string, 0, len(s.Indexes))
	for name := range s.Indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ix := s.Indexes[name]
		fmt.Printf("  %-6s %10d bytes  built in %s\n", name, ix.SizeBytes, ix.BuildTime.Round(time.Millisecond))
	}
}

// usageExit routes invalid flag values through the shared convention,
// appending the valid method names.
func usageExit(format string, args ...any) {
	cliutil.UsageExit("valid methods: "+strings.Join(rnknn.MethodNames(), ", "), format, args...)
}
