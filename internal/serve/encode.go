package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"rnknn/pkg/rnknn"
)

// The answer encoder writes the /knn, /range and /batch bodies by appending
// straight from the library's results into a pooled buffer: no wire-type
// copy of the results, no reflection. Its parity rule: every body is
// byte-identical to json.NewEncoder(w).Encode of the wire type (types.go)
// holding the same values, trailing newline included, so any client decoding
// the wire types, or grepping the bodies, cannot tell the two apart.
// TestAnswerEncodingMatchesJSON and FuzzServeRequests check it. Errors,
// /stats, /healthz and the /monitor events stay on writeJSON: they are not
// the hot path.

// maxPooledBody bounds the buffers returned to bodyPool: a rare huge answer
// (a range over the whole network) must not pin its buffer in the pool.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// jsonContentType is the Content-Type header value every body shares; the
// header map holds the slice itself, so setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// writeBody answers 200 with the JSON body *b in one Write and returns the
// buffer to the pool.
func writeBody(w http.ResponseWriter, b *[]byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(*b))}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*b)
	if cap(*b) <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// appendAnswer appends the body answering cq — a KNNResponse, or for a
// range query a RangeResponse — with the cache path's epoch and cached flag,
// the handling time in µs and the results.
func appendAnswer(b []byte, cq cachedQuery, epoch uint64, cached bool, latencyUS int64, res []rnknn.Result) []byte {
	b = append(b, `{"query":`...)
	b = strconv.AppendInt(b, int64(cq.vertex), 10)
	if cq.isRange {
		b = append(b, `,"radius":`...)
		b = strconv.AppendInt(b, cq.radius, 10)
	} else {
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, int64(cq.k), 10)
		b = append(b, `,"method":`...)
		b = appendString(b, cq.method.String())
	}
	b = append(b, `,"category":`...)
	b = appendString(b, cq.category)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached)
	b = append(b, `,"latency_us":`...)
	b = strconv.AppendInt(b, latencyUS, 10)
	b = append(b, `,"results":`...)
	b = appendResults(b, res)
	return append(b, "}\n"...)
}

// appendBatch appends the BatchResponse body for the members' outcomes;
// cached[i] marks member i as answered without a search (a cache hit or a
// duplicate of an earlier member). A failed member carries only its query,
// error, flags and latency, and "results":null, as BatchResultJSON encodes
// with those fields unset.
func appendBatch(b []byte, out []rnknn.BatchResult, cached []bool) []byte {
	b = append(b, `{"results":[`...)
	for i, br := range out {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"query":`...)
		b = strconv.AppendInt(b, int64(br.Query), 10)
		if br.Err == nil {
			b = append(b, `,"method":`...)
			b = appendString(b, br.Method.String())
			if br.Epoch != 0 {
				b = append(b, `,"epoch":`...)
				b = strconv.AppendUint(b, br.Epoch, 10)
			}
		} else if msg := br.Err.Error(); msg != "" {
			b = append(b, `,"error":`...)
			b = appendString(b, msg)
		}
		if cached[i] {
			b = append(b, `,"cached":true`...)
		}
		if br.Shared {
			b = append(b, `,"shared":true`...)
		}
		b = append(b, `,"latency_us":`...)
		b = strconv.AppendInt(b, br.Latency.Microseconds(), 10)
		b = append(b, `,"results":`...)
		if br.Err != nil {
			b = append(b, "null"...)
		} else {
			b = appendResults(b, br.Results)
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// appendResults appends res as a JSON array of ResultJSON objects; nil
// and empty both encode as [], as Results' non-nil slice does.
func appendResults(b []byte, res []rnknn.Result) []byte {
	b = append(b, '[')
	for i, r := range res {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"vertex":`...)
		b = strconv.AppendInt(b, int64(r.Vertex), 10)
		b = append(b, `,"dist":`...)
		b = strconv.AppendInt(b, int64(r.Dist), 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendString appends s as a JSON string. A string encoding/json would
// write unchanged between quotes is appended raw; any other — one holding a
// control byte, a quote, a backslash, an HTML-escaped <, > or &, or any
// byte >= 0x80 (U+2028, U+2029 and invalid UTF-8 are escaped or replaced)
// — goes through json.Marshal, so the escaping is encoding/json's own.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
