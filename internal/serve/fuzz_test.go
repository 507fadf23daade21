package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"rnknn/internal/gen"
	"rnknn/pkg/rnknn"
)

// FuzzServeRequests drives the request decoders with fuzzed input: a /batch
// body, a /knn query string and a /range query string, against a DB with the
// methods rnknnd builds by default. Whatever the input, each request must
// answer 200, 400, 404 or 413 with a JSON body, and no handler may panic or
// allocate by an unchecked size. Every 200 body must also round-trip: it
// equals encoding/json's encoding of its own decoding into the wire type,
// the answer encoder's parity rule. The DB's second category, escCategory,
// has a name encoding/json escapes, and so do the error messages that list
// the categories. The network is VT, the smallest rung on which the planner
// shares an INE group whose members ask for every object: the huge-k seed
// once ran the process out of memory there.
//
//	go test -run '^$' -fuzz '^FuzzServeRequests$' -fuzztime 60s ./internal/serve/
func FuzzServeRequests(f *testing.F) {
	spec, _ := gen.LadderSpec("VT")
	g := gen.Network(spec)
	db, err := rnknn.Open(g,
		rnknn.WithMethods(rnknn.INE, rnknn.IERPHL, rnknn.Gtree),
		rnknn.WithObjects(rnknn.DefaultCategory, gen.Uniform(g, 0.01, 1)),
		rnknn.WithObjects(escCategory, gen.Uniform(g, 0.01, 2)),
	)
	if err != nil {
		f.Fatal(err)
	}
	h := New(db, Config{}).Handler()

	f.Add(`{"queries":[{"query":3,"k":5},{"query":7,"radius":20000}]}`, "q=3&k=5", "q=3&radius=20000")
	f.Add(`{"queries":[{"query":3,"k":5,"method":"Gtree"},{"query":4,"k":2,"method":"INE"}]}`, "q=3&k=5&method=IER-PHL", "q=0&radius=0")
	f.Add(`{"queries":[{"query":3,"k":5,"radius":100}]}`, "q=3&k=0", "q=3")
	f.Add(`{"queries":[{"query":3,"k":5,"category":"nope"}]}`, "q=3&category=nope", "q=3&radius=10&category=nope")
	f.Add(`{"queries":[{"query":3,"k":5,"method":"Dijkstra"}]}`, "q=3&method=Dijkstra", "q=-1&radius=5")
	f.Add(`{"queries":[{"query":0,"k":2147483647,"method":"INE"},{"query":1,"k":2147483647,"method":"INE"}]}`,
		"q=0&k=2147483647", "q=0&radius=9223372036854775807")
	f.Add(`{"queries":[]}`, "q=99999999999&k=1", "radius=1")
	esc := url.QueryEscape(escCategory)
	f.Add(`{"queries":[{"query":3,"k":5,"category":"a\"<&>\u2028é"},{"query":3,"k":5,"category":"a\"<&>\u2028é"},{"query":4,"radius":20000,"category":"a\"<&>\u2028é"}]}`,
		"q=3&k=5&category="+esc, "q=3&radius=20000&category="+esc)
	f.Add(`{"queries":[{"query":3,"k":5,"category":"<no>"},{"query":-1,"k":5,"category":"a\"<&>\u2028é"},{"query":5,"k":2}]}`,
		"q=3&k=0&category="+esc, "q=-1&radius=5&category="+esc)

	f.Fuzz(func(t *testing.T, body, knnQuery, rangeQuery string) {
		expectSafe(t, h, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body)), &BatchResponse{})
		for _, r := range []struct {
			path, query string
			wire        any
		}{{"/knn", knnQuery, &KNNResponse{}}, {"/range", rangeQuery, &RangeResponse{}}} {
			req := httptest.NewRequest(http.MethodGet, r.path, nil)
			req.URL.RawQuery = r.query
			expectSafe(t, h, req, r.wire)
		}
	})
}

// escCategory is a category name holding every class of byte the answer
// encoder hands to json.Marshal: a quote, the HTML-escaped <, & and >, and
// multi-byte UTF-8 (U+2028, which encoding/json escapes, and é, which it
// does not).
const escCategory = "a\"<&>\u2028é"

// expectSafe serves req and fails unless the answer is one of the statuses a
// client error or success maps to, with a JSON body; a 200 body must equal
// encoding/json's encoding of its decoding into wire, a pointer to the
// endpoint's wire type.
func expectSafe(t *testing.T, h http.Handler, req *http.Request, wire any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
	default:
		t.Fatalf("%s %s?%s: status %d: %s", req.Method, req.URL.Path, req.URL.RawQuery, rec.Code, rec.Body.Bytes())
	}
	body := rec.Body.Bytes()
	if !json.Valid(body) {
		t.Fatalf("%s %s?%s: status %d with a body that is not JSON: %q", req.Method, req.URL.Path, req.URL.RawQuery, rec.Code, body)
	}
	if rec.Code != http.StatusOK {
		return
	}
	if err := json.Unmarshal(body, wire); err != nil {
		t.Fatalf("%s %s?%s: 200 body does not decode into %T: %v", req.Method, req.URL.Path, req.URL.RawQuery, wire, err)
	}
	if want := jsonEncoded(t, wire); !bytes.Equal(body, want) {
		t.Fatalf("%s %s?%s: 200 body differs from encoding/json's:\n got %s\nwant %s", req.Method, req.URL.Path, req.URL.RawQuery, body, want)
	}
}
