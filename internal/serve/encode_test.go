package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"rnknn/pkg/rnknn"
)

// jsonEncoded is the parity reference: what json.NewEncoder(w).Encode
// writes for v.
func jsonEncoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireBatch is the wire form of a /batch answer: a failed member carries its
// error instead of a method, an epoch and results.
func wireBatch(out []rnknn.BatchResult, cached []bool) BatchResponse {
	resp := BatchResponse{Results: make([]BatchResultJSON, len(out))}
	for i, br := range out {
		m := BatchResultJSON{Query: br.Query, Cached: cached[i], Shared: br.Shared, LatencyMicros: br.Latency.Microseconds()}
		if br.Err != nil {
			m.Error = br.Err.Error()
		} else {
			m.Method = br.Method.String()
			m.Epoch = br.Epoch
			m.Results = Results(br.Results)
		}
		resp.Results[i] = m
	}
	return resp
}

// encodingStrings are the categories and error messages the random values
// draw from: plain ones, every class encoding/json escapes, and invalid
// UTF-8, which it replaces.
var encodingStrings = []string{
	"", "default", "d0.001", "poi-cafe_2",
	"a\"<&>\u2028é", "\x00\x1f\x7f", "back\\slash", "tab\tnew\nline",
	"\u2029", "\xff\xfe", "ok\xc3", "日本", "</script>",
	`rnknn: unknown object category: "x" (registered: [default a"<&>` + "\u2028é])",
}

func randomString(rng *rand.Rand) string {
	if rng.Intn(4) > 0 {
		return encodingStrings[rng.Intn(len(encodingStrings))]
	}
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

func randomInt64(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return rng.Int63n(1000)
	case 2:
		return -rng.Int63n(1000)
	}
	return []int64{math.MaxInt64, math.MinInt64, math.MaxInt32, 1 << 40}[rng.Intn(4)]
}

func randomResults(rng *rand.Rand) []rnknn.Result {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []rnknn.Result{}
	}
	res := make([]rnknn.Result, 1+rng.Intn(12))
	for i := range res {
		res[i] = rnknn.Result{Vertex: int32(randomInt64(rng)), Dist: randomInt64(rng)}
	}
	return res
}

func randomMethod(rng *rand.Rand) rnknn.Method {
	if ms := rnknn.Methods(); rng.Intn(len(ms)+1) < len(ms) {
		return ms[rng.Intn(len(ms))]
	}
	return rnknn.MethodAuto
}

func randomEpoch(rng *rand.Rand) uint64 {
	if rng.Intn(2) == 0 {
		return 0
	}
	return []uint64{1, 7, math.MaxUint64, uint64(rng.Int63())}[rng.Intn(4)]
}

// TestAnswerEncodingMatchesJSON checks the answer encoder's parity rule over
// random /knn, /range and /batch answers: each body is byte-identical to
// encoding/json's encoding of the wire type holding the same values.
func TestAnswerEncodingMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 2000; i++ {
		cq := cachedQuery{
			isRange:  i%2 == 1,
			vertex:   int32(randomInt64(rng)),
			k:        int32(randomInt64(rng)),
			radius:   randomInt64(rng),
			method:   randomMethod(rng),
			category: randomString(rng),
		}
		epoch, cached, latency, res := randomEpoch(rng), rng.Intn(2) == 0, randomInt64(rng), randomResults(rng)
		var want any = KNNResponse{
			Query: cq.vertex, K: int(cq.k), Method: cq.method.String(), Category: cq.category,
			Epoch: epoch, Cached: cached, LatencyMicros: latency, Results: Results(res),
		}
		if cq.isRange {
			want = RangeResponse{
				Query: cq.vertex, Radius: cq.radius, Category: cq.category,
				Epoch: epoch, Cached: cached, LatencyMicros: latency, Results: Results(res),
			}
		}
		if got, w := appendAnswer(nil, cq, epoch, cached, latency, res), jsonEncoded(t, want); !bytes.Equal(got, w) {
			t.Fatalf("answer %d (%+v):\n got %s\nwant %s", i, cq, got, w)
		}

		out := make([]rnknn.BatchResult, 1+rng.Intn(6))
		flags := make([]bool, len(out))
		for j := range out {
			br := rnknn.BatchResult{
				Query:   int32(randomInt64(rng)),
				Method:  randomMethod(rng),
				Results: randomResults(rng),
				Latency: time.Duration(randomInt64(rng)),
				Shared:  rng.Intn(2) == 0,
				Epoch:   randomEpoch(rng),
			}
			if rng.Intn(3) == 0 {
				br.Err = errors.New(randomString(rng))
			}
			out[j], flags[j] = br, rng.Intn(2) == 0
		}
		if got, w := appendBatch(nil, out, flags), jsonEncoded(t, wireBatch(out, flags)); !bytes.Equal(got, w) {
			t.Fatalf("batch %d:\n got %s\nwant %s", i, got, w)
		}
	}
}
