// Command rnknnd serves kNN queries over HTTP — the network front end of
// the library, built on internal/serve's two load-shedding layers
// (admission control, epoch-keyed result cache).
//
// Serve the default ~22k-vertex ladder network with the default methods
// (INE, IER-PHL and G-tree; -methods picks others):
//
//	rnknnd -addr :8080 -network NW -density 0.001
//
// Serve a prebuilt snapshot zero-copy (warm start costs page faults, and
// replicas of one snapshot share a single page-cache copy), or a shard
// set built by buildindex -shards:
//
//	rnknnd -snapshot nw.rnks
//	rnknnd -shards de-shards
//
// Endpoints (all JSON):
//
//	GET  /knn?q=123&k=10[&method=auto][&category=default]
//	GET  /range?q=123&radius=5000[&category=default]
//	POST /batch            {"queries":[{"query":1,"k":10},{"query":2,"radius":5000}]}
//	POST /objects/insert   {"category":"default","vertices":[7,9]}
//	POST /objects/remove   {"category":"default","vertices":[7]}
//	GET  /stats
//	GET  /healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rnknn/internal/cliutil"
	"rnknn/internal/gen"
	"rnknn/internal/graph"
	"rnknn/internal/serve"
	"rnknn/pkg/rnknn"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		network     = flag.String("network", "NW", "ladder network name")
		snapshot    = flag.String("snapshot", "", "open a self-contained snapshot file zero-copy (graph included; see buildindex) instead of -network")
		shardDir    = flag.String("shards", "", "serve a shard set directory (see buildindex -shards) instead of -network")
		mmapFlag    = flag.Bool("mmap", false, "map the -indexcache snapshot zero-copy instead of decoding it")
		methodsFlag = flag.String("methods", "INE,IER-PHL,Gtree", "comma-separated methods to build (see rnknn.MethodNames)")
		density     = flag.Float64("density", 0.001, "uniform object density in (0,1] for the default category")
		seed        = flag.Int64("seed", 42, "object placement seed")
		timeW       = flag.Bool("traveltime", false, "use travel-time weights")
		indexCache  = flag.String("indexcache", "", "directory for the index snapshot cache (skip rebuilds across restarts)")
		maxInflight = flag.Int("max-inflight", 256, "admission limit: concurrent query requests before shedding 429s")
		cacheSize   = flag.Int("cache-entries", 4096, "result cache capacity in entries (negative disables)")
	)
	flag.Parse()

	if *density <= 0 || *density > 1 {
		usageExit("-density must be in (0,1], got %g", *density)
	}
	if *snapshot != "" && *shardDir != "" {
		usageExit("-snapshot and -shards are mutually exclusive")
	}
	var methods []rnknn.Method
	for _, name := range strings.Split(*methodsFlag, ",") {
		m, err := rnknn.ParseMethod(strings.TrimSpace(name))
		if err != nil {
			usageExit("-methods: %v", err)
		}
		if m == rnknn.MethodAuto {
			usageExit("-methods: list concrete methods to build; requests pick auto per query")
		}
		methods = append(methods, m)
	}
	opts := []rnknn.Option{rnknn.WithMethods(methods...)}
	cfg := serve.Config{
		MaxInFlight:  *maxInflight,
		CacheEntries: *cacheSize,
	}

	// Whatever is opened — a shard set, a snapshot, or a ladder network
	// built here — is then populated, reported and served the same way.
	var (
		db  *rnknn.DB
		err error
	)
	start := time.Now()
	switch {
	case *shardDir != "":
		// The set's one snapshot, mapped once, with objects partitioned over
		// the manifest's cells. The manifest names the methods unless
		// -methods was given.
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "methods" })
		if !explicit {
			opts = nil
		}
		db, err = rnknn.OpenSharded(*shardDir, opts...)
	case *snapshot != "":
		// Zero-copy: graph and indexes come from the snapshot's mapping;
		// warm start costs page faults, not a decode.
		db, err = rnknn.OpenSnapshotFile(*snapshot, opts...)
	default:
		spec, ok := gen.LadderSpec(*network)
		if !ok {
			usageExit("unknown network %q", *network)
		}
		g := gen.Network(spec)
		if *timeW {
			g = g.View(graph.TravelTime)
		}
		if *indexCache != "" {
			opts = append(opts, rnknn.WithIndexCache(*indexCache))
			if *mmapFlag {
				opts = append(opts, rnknn.WithMmap())
			}
		}
		db, err = rnknn.Open(g, opts...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer db.Close()
	srv := serve.New(db, cfg)
	serving := fmt.Sprintf("methods %v", db.Methods())
	if n := db.NumShards(); n > 1 {
		serving += fmt.Sprintf(" across %d shards", n)
	}
	g := db.Graph()
	if err := db.RegisterObjects(rnknn.DefaultCategory, gen.Uniform(g, *density, *seed)); err != nil {
		fmt.Fprintln(os.Stderr, "objects:", err)
		os.Exit(1)
	}
	numObjects, _ := db.NumObjects(rnknn.DefaultCategory)
	fmt.Printf("rnknnd: network %s |V|=%d |E|=%d (%s weights), %d objects, %s, opened in %s\n",
		g.Name, g.NumVertices(), g.NumEdges()/2, g.Kind, numObjects, serving, time.Since(start).Round(time.Millisecond))
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("rnknnd: listening on %s (max in-flight %d, cache %d entries)\n", *addr, *maxInflight, *cacheSize)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Println("rnknnd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
			os.Exit(1)
		}
	}
	stats := srv.Stats()
	fmt.Printf("rnknnd: served %d requests (%d shed, %d cache hits)\n",
		stats.Requests, stats.Shed, stats.CacheHits)
}

func usageExit(format string, args ...any) {
	cliutil.UsageExit("valid methods: "+strings.Join(rnknn.MethodNames(), ", "), format, args...)
}
