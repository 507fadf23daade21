package rnknn_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rnknn/internal/gen"
	"rnknn/internal/serve"
	"rnknn/pkg/rnknn"
)

// TestMethodlessQueryIsPlanned: a query that names no method is MethodAuto
// on every entry point, the library's and the server's alike. The DB lists
// Gtree first and the planner picks INE on the dense category and IER-PHL
// on the sparse one, so an entry point that ran the first enabled method
// fails here. The method that answered is read from Stats (the one method
// whose counters move), and from BatchResult.Method where there is one.
func TestMethodlessQueryIsPlanned(t *testing.T) {
	g := gen.Network(gen.NetworkSpec{Name: "methodless", Rows: 64, Cols: 80, Seed: 13})
	db, err := rnknn.Open(g, rnknn.WithMethods(rnknn.Gtree, rnknn.INE, rnknn.IERPHL),
		rnknn.WithObjects("dense", gen.Uniform(g, 0.1, 3)),
		rnknn.WithObjects("sparse", gen.Uniform(g, 0.001, 4)))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.New(db, serve.Config{}).Handler())
	defer srv.Close()
	ctx := context.Background()
	const q, k = 99, 10
	for _, c := range []struct {
		cat  string
		want rnknn.Method
	}{{"dense", rnknn.INE}, {"sparse", rnknn.IERPHL}} {
		in := rnknn.WithCategory(c.cat)
		if plan, err := db.Explain(q, k, in); err != nil || plan.Method != c.want {
			t.Fatalf("%s: Explain = %v, %v; want %v", c.cat, plan.Method, err, c.want)
		}
		batchMethod := func(out []rnknn.BatchResult, err error) error {
			if err == nil && out[0].Err != nil {
				err = out[0].Err
			}
			if err == nil && out[0].Method != c.want {
				err = fmt.Errorf("BatchResult.Method = %v", out[0].Method)
			}
			return err
		}
		for _, e := range []struct {
			name string
			run  func() error
		}{
			{"KNN", func() error { _, err := db.KNN(ctx, q, k, in); return err }},
			{"KNNPinned", func() error { _, _, err := db.KNNPinned(ctx, q, k, in); return err }},
			{"KNNSeq", func() error {
				for _, err := range db.KNNSeq(ctx, q, k, in) {
					if err != nil {
						return err
					}
				}
				return nil
			}},
			{"Range", func() error { _, err := db.Range(ctx, q, 3000, in); return err }},
			{"Batch", func() error { return batchMethod(db.Batch().AddKNN(q, k, in).Run(ctx)) }},
			{"Batch range", func() error { return batchMethod(db.Batch().AddRange(q, 3000, in).Run(ctx)) }},
			{"Monitor", func() error {
				for _, err := range db.Monitor(ctx, []int32{q}, k-1, in) {
					if err != nil {
						return err
					}
				}
				return nil
			}},
			{"/knn", func() error {
				resp, err := http.Get(fmt.Sprintf("%s/knn?q=%d&k=%d&category=%s", srv.URL, q, k, c.cat))
				if err != nil {
					return err
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("status %d", resp.StatusCode)
				}
				return nil
			}},
			{"/batch", func() error {
				body := fmt.Sprintf(`{"queries":[{"query":%d,"k":%d,"category":%q}]}`, q+1, k, c.cat)
				resp, err := http.Post(srv.URL+"/batch", "application/json", strings.NewReader(body))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				var out serve.BatchResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					return err
				}
				if r := out.Results[0]; r.Error != "" || r.Method != c.want.String() {
					return fmt.Errorf("member method %q, error %q", r.Method, r.Error)
				}
				return nil
			}},
		} {
			before := db.Stats().Methods
			if err := e.run(); err != nil {
				t.Errorf("%s %s: %v", c.cat, e.name, err)
				continue
			}
			after := db.Stats().Methods
			for _, m := range db.Methods() {
				b, a := before[m.String()], after[m.String()]
				if ran := a.KNNQueries+a.RangeQueries > b.KNNQueries+b.RangeQueries; ran != (m == c.want) {
					t.Errorf("%s %s: %v ran = %v, want the planner's pick %v", c.cat, e.name, m, ran, c.want)
				}
			}
		}
	}
}
