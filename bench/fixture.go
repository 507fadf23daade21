package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"rnknn/internal/gen"
	"rnknn/pkg/rnknn"
)

// fixtureEnv, when set, turns this process into the fixture builder: it
// builds the indexes of the ladder network its one argument names into the
// directory the variable names, prints a fixtureInfo as JSON and exits.
// Building in a child keeps index-construction garbage out of the process
// that measures latencies and whose peak RSS the lib-* workloads report, and
// lets the parent time the whole build from outside.
const fixtureEnv = "RNBENCH_FIXTURE_DIR"

// fixtureNetwork is the ladder rung every measured number is defined on;
// README.md says why this one.
const fixtureNetwork = "NW"

// The fixture's methods: the three expansion methods lib-expand rotates
// through plus IER-PHL, the planner's usual pick at low density. TNR and
// SILC are left out (build cost), see README.md.
var fixtureMethods = []rnknn.Method{rnknn.INE, rnknn.IERPHL, rnknn.Gtree, rnknn.ROAD}

const (
	fixtureMethodsFlag = "INE,IER-PHL,Gtree,ROAD"
	numShards          = 4
)

// fixtureInfo is what the fixture child reports about its build.
type fixtureInfo struct {
	Network       string             `json:"network"`
	Vertices      int                `json:"vertices"`
	Edges         int                `json:"edges"`
	BuildSeconds  map[string]float64 `json:"build_seconds"` // per index, from Stats().Indexes
	SnapshotBytes int64              `json:"snapshot_bytes"`
}

func cacheDir(dir string) string { return filepath.Join(dir, "cache") }
func shardDir(dir string) string { return filepath.Join(dir, "shards") }
func snapshotPath(dir string) string {
	return filepath.Join(shardDir(dir), rnknn.ShardSnapshotName)
}

// fixtureMain is the child's entry point.
func fixtureMain(dir string, args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "rnbench fixture: want one argument, the ladder network")
		return 2
	}
	info, err := buildFixtureHere(dir, args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rnbench fixture:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(info); err != nil {
		fmt.Fprintln(os.Stderr, "rnbench fixture:", err)
		return 1
	}
	return 0
}

// buildFixtureHere builds every fixture index in this process: the index
// cache rnknnd warm-starts from, and the shard set whose snapshot the
// library workloads map.
func buildFixtureHere(dir, network string) (fixtureInfo, error) {
	spec, ok := gen.LadderSpec(network)
	if !ok {
		return fixtureInfo{}, fmt.Errorf("unknown ladder network %q", network)
	}
	g := gen.Network(spec)
	db, err := rnknn.Open(g, rnknn.WithMethods(fixtureMethods...), rnknn.WithIndexCache(cacheDir(dir)))
	if err != nil {
		return fixtureInfo{}, fmt.Errorf("open: %w", err)
	}
	defer db.Close()
	if err := db.SaveShardSet(shardDir(dir), numShards); err != nil {
		return fixtureInfo{}, fmt.Errorf("save shard set: %w", err)
	}
	fi, err := os.Stat(snapshotPath(dir))
	if err != nil {
		return fixtureInfo{}, err
	}
	info := fixtureInfo{
		Network:       network,
		Vertices:      g.NumVertices(),
		Edges:         g.NumEdges() / 2,
		BuildSeconds:  map[string]float64{},
		SnapshotBytes: fi.Size(),
	}
	for name, ix := range db.Stats().Indexes {
		info.BuildSeconds[name] = ix.BuildTime.Seconds()
	}
	return info, nil
}

// buildFixture runs the fixture child and returns its report and the
// wall-clock time of the whole build, process start to exit.
func buildFixture(ctx context.Context, dir, network string) (fixtureInfo, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return fixtureInfo{}, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, network)
	cmd.Env = append(os.Environ(), fixtureEnv+"="+dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return fixtureInfo{}, 0, fmt.Errorf("fixture build: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	elapsed := time.Since(start)
	var info fixtureInfo
	if err := json.Unmarshal(stdout.Bytes(), &info); err != nil {
		return fixtureInfo{}, 0, fmt.Errorf("fixture build: bad report: %w", err)
	}
	return info, elapsed, nil
}
