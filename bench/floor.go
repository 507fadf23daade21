package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// floorEnv, when set, turns this process into the floor server: a net/http
// server on a free loopback port that answers every request with one fixed
// body the size of a k=10 answer. It prints its address and serves until its
// standard input closes, so it cannot outlive the harness.
const floorEnv = "RNBENCH_FLOOR"

func floorMain() int {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rnbench floor:", err)
		return 1
	}
	body := []byte(`{"query":12345,"k":10,"category":"d0.001.00","method":"Auto","epoch":1,"cached":true,"results":[` +
		strings.TrimSuffix(strings.Repeat(`{"vertex":12345,"dist":678901},`, 10), ",") + `]}` + "\n")
	fmt.Println(l.Addr())
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	err = http.Serve(l, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}))
	fmt.Fprintln(os.Stderr, "rnbench floor:", err)
	return 1
}

// floor is the yardstick of the HTTP workloads: the loopback round trip of
// two Go processes pinned to this CPU with none of this repository's code
// between them. What the host does to that — and it swings by a fifth over
// minutes — it does to every rnknnd request measured beside it.
type floor struct {
	cmd    *exec.Cmd
	stdin  io.Closer
	url    string
	client *http.Client
}

func startFloor(clients int) (*floor, error) {
	if os.Getenv(floorEnv) != "" {
		// A binary that does not hand floorEnv to floorMain would start
		// itself over and over.
		return nil, fmt.Errorf("%s is set: this process is meant to be the floor server", floorEnv)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f := &floor{client: &http.Client{Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}}}
	f.cmd = exec.Command(exe)
	f.cmd.Env = append(os.Environ(), floorEnv+"=1")
	f.cmd.Stderr = os.Stderr
	stdin, err := f.cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := f.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := f.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start floor server: %w", err)
	}
	f.stdin = stdin
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		f.close()
		return nil, fmt.Errorf("floor server did not report its address: %w", err)
	}
	f.url = "http://" + strings.TrimSpace(addr) + "/"
	return f, nil
}

// close ends the floor server and waits for it.
func (f *floor) close() {
	f.client.CloseIdleConnections()
	_ = f.stdin.Close()
	_ = f.cmd.Wait()
}

// floorSample is one slice of floor traffic.
type floorSample struct {
	elapsed time.Duration
	lat     []uint32 // round-trip latencies, ns
}

// run drives the floor server with clients closed-loop connections for d.
func (f *floor) run(ctx context.Context, clients int, d time.Duration) (floorSample, error) {
	start := time.Now()
	end := start.Add(d)
	lats := make([][]uint32, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				begin := time.Now()
				if !begin.Before(end) {
					return
				}
				resp, err := f.client.Get(f.url)
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if err != nil {
					errs[c] = err
					return
				}
				lats[c] = append(lats[c], nanos(time.Since(begin)))
			}
		}(c)
	}
	wg.Wait()
	s := floorSample{elapsed: time.Since(start)}
	for c := range lats {
		if errs[c] != nil {
			return s, fmt.Errorf("floor server: %w", errs[c])
		}
		s.lat = append(s.lat, lats[c]...)
	}
	return s, nil
}

// floorReading is what the floor read over the windows a run keeps.
type floorReading struct {
	Rate    float64 `json:"rate"`   // round trips per second
	P50     float64 `json:"p50_ns"` // round-trip latency
	P99     float64 `json:"p99_ns"`
	Samples int     `json:"samples"`
}

// The floor on this box in a quiet spell, two connections, in ns: the
// reading every http-* run's timings are scaled to.
const (
	floorRefP50 = 60e3
	floorRefP99 = 190e3
)
