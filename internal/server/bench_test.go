package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"relsim/internal/datasets"
	"relsim/internal/store"
)

// BenchmarkBatchThroughput measures /batch queries/sec over dblp-small
// at 1, 4 and 16 workers. Config.Workers is 16 so every row's request
// runs at the pool size it asks for. The first request materializes
// the expanded pattern set; steady-state batches run against the hot
// commuting-matrix cache, which is the serving regime the worker pool
// is for.
func BenchmarkBatchThroughput(b *testing.B) {
	ds, err := datasets.ByName("dblp-small")
	if err != nil {
		b.Fatal(err)
	}
	srv := New(store.New(ds.Graph), ds.Schema, func(c *Config) { c.Workers = 16 })
	ts := httptest.NewServer(srv)
	defer ts.Close()

	procs := datasets.DegreeWeightedSample(ds.Graph, "proc", 16, 1)
	patternS, _ := datasets.DBLPPatterns()
	queries := make([]SearchRequest, len(procs))
	for i, id := range procs {
		queries[i] = SearchRequest{
			Pattern: patternS,
			Query:   fmt.Sprint(id),
			Type:    "proc",
			Top:     10,
		}
	}

	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			body, err := json.Marshal(BatchRequest{Queries: queries, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			queriesDone := 0
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				var br BatchResponse
				if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				for j, res := range br.Results {
					if res.Error != "" {
						b.Fatalf("query %d: %s", j, res.Error)
					}
				}
				queriesDone += len(br.Results)
			}
			b.ReportMetric(float64(queriesDone)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}
