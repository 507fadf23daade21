package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// reusableWriter is a ResponseWriter that keeps its header map across
// requests and discards the body, as a connection's writer does between
// keep-alive requests: what a handler allocates on it is the handler's own.
type reusableWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *reusableWriter) Header() http.Header { return w.h }

func (w *reusableWriter) WriteHeader(status int) { w.status = status }

func (w *reusableWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// maxHitAllocs bounds the allocations of one /knn cache hit: the one query
// string parse, the Content-Length header and the mux's routing. Encoding
// the body allocates nothing (a pooled buffer).
const maxHitAllocs = 8

// TestKNNHitAllocs pins the cache-hit path's allocations: a /knn request
// answered from the result cache parses its query string once and encodes
// its body without reflection.
func TestKNNHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector sync.Pool drops Puts; body buffers are re-made mid-run")
	}
	h := New(newTestDB(t), Config{}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/knn?q=17&k=5", nil)
	w := &reusableWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // the miss that fills the cache
	if w.status != http.StatusOK {
		t.Fatalf("priming request: status %d", w.status)
	}
	allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
	if w.status != http.StatusOK || w.n == 0 {
		t.Fatalf("hit: status %d, %d body bytes", w.status, w.n)
	}
	if allocs > maxHitAllocs {
		t.Fatalf("a /knn cache hit makes %.1f allocations, want <= %d", allocs, maxHitAllocs)
	}
	t.Logf("%.1f allocations per /knn cache hit", allocs)
}
