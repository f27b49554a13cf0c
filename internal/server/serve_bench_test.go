package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"meshplace/internal/wmn"
)

// BenchmarkServeBatched measures the serving layer under the workload the
// batcher exists for: bursts of identical concurrent requests. One benchmark
// op is one 64-request burst (so ns/op is ns per burst and the reported
// ns/request is ns/op ÷ 64), with the result cache disabled so every burst
// costs real solver work. In the batched arm the first request starts
// computing at once and the rest of the burst dedup-attaches to that running
// computation; with the cache off, a request that arrives after the run
// finished computes again. The unbatched arm solves all 64 independently.
// The two arms
// share a stream, so cmd/benchdiff gates their ratio (batched must not be
// slower) independent of the hardware either stream was recorded on.
func BenchmarkServeBatched(b *testing.B) {
	cfg := wmn.DefaultGenConfig()
	cfg.Name = "serve-bench"
	cfg.Width, cfg.Height = 64, 64
	cfg.NumRouters = 16
	cfg.NumClients = 512
	cfg.Seed = 11
	in, err := wmn.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{
		"solver":   "search:phases=8,neighbors=16",
		"seed":     1,
		"instance": in,
		"mode":     "sync",
	})
	if err != nil {
		b.Fatal(err)
	}
	body := string(payload)

	const burst = 64
	for _, arm := range []struct {
		name    string
		disable bool
	}{
		{"batched", false},
		{"unbatched", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			srv := New(Config{
				CacheSize:       0, // every burst pays for its solve
				DisableBatching: arm.disable,
				BatchSize:       burst,
			})
			defer srv.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for r := 0; r < burst; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body))
						w := httptest.NewRecorder()
						srv.ServeHTTP(w, req)
						if w.Code != http.StatusOK {
							b.Errorf("solve = %d", w.Code)
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/request")
		})
	}
}
