package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops a
// random quarter of Puts and reply buffers are regrown at random.
var raceEnabled bool

// wireResponse is the oracle for appendPlaceResponse: the served map as a
// PlaceResponseJSON, with a non-nil Placements slice, for encoding/json
// to write.
func wireResponse(cluster string, epoch uint64, cached bool, m *core.Map) PlaceResponseJSON {
	out := PlaceResponseJSON{
		Cluster:    cluster,
		Epoch:      epoch,
		Cached:     cached,
		NP:         m.NumRanks(),
		Sweeps:     m.Sweeps,
		Placements: make([]PlacementJSON, 0, m.NumRanks()),
	}
	for i := range m.Placements {
		p := &m.Placements[i]
		out.Placements = append(out.Placements, PlacementJSON{
			Rank: p.Rank, Node: p.Node, NodeName: p.NodeName, PUs: p.PUs,
		})
	}
	return out
}

// encodeOracle is what json.Encoder writes for v.
func encodeOracle(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// replyOf is the /v1/place reply written for a served placement.
func replyOf(cluster string, resp *Response) []byte {
	w := httptest.NewRecorder()
	writePlaceReply(w, cluster, resp)
	return w.Body.Bytes()
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestHTTPServedEqualsComputed drives POST /v1/place over a real HTTP
// connection and requires every reply to equal a fresh in-process
// (*Engine).Place of the same request on the same engine, to carry an
// exact Content-Length, to repeat byte for byte from the cache apart
// from "cached":true on the first hit and every later one, and to come
// back as the miss bytes when asked with no_cache.
func TestHTTPServedEqualsComputed(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	mux := http.NewServeMux()
	e.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, tc := range []struct {
		name  string
		event *Event // applied before the request
		req   Request
	}{
		{name: "default-lama", req: Request{Cluster: "test", NP: 40}},
		{name: "layout-ncsbh", req: Request{Cluster: "test", NP: 40, Layout: "ncsbh"}},
		{name: "layout-scbnh", req: Request{Cluster: "test", NP: 40, Layout: "scbnh"}},
		{name: "pes-per-proc", req: Request{Cluster: "test", NP: 24, Layout: "csbn", PEsPerProc: 2}},
		{name: "oversubscribe", req: Request{Cluster: "test", NP: 100, Oversubscribe: true}},
		{name: "by-node-ring", req: Request{Cluster: "test", NP: 32, Policy: "by-node", Pattern: "ring"}},
		{name: "after-fail-node", event: &Event{Type: "fail-node", Node: 1}, req: Request{Cluster: "test", NP: 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.event != nil {
				if _, _, err := e.ApplyEvent("test", tc.event); err != nil {
					t.Fatal(err)
				}
			}
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			resp, first := post(t, ts.URL+"/v1/place", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, first)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(first)) {
				t.Fatalf("Content-Length %q, body %d bytes", cl, len(first))
			}
			var got PlaceResponseJSON
			if err := json.Unmarshal(first, &got); err != nil {
				t.Fatal(err)
			}

			fresh := tc.req
			fresh.NoCache = true
			r, err := e.Place(context.Background(), &fresh)
			if err != nil {
				t.Fatal(err)
			}
			want := wireResponse(tc.req.Cluster, r.Epoch, false, &r.Map)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("served %+v\ncomputed %+v", got, want)
			}
			if oracle := encodeOracle(t, want); !bytes.Equal(first, oracle) {
				t.Fatalf("served bytes differ from encoding/json:\n%s\n%s", first, oracle)
			}
			if tc.event != nil && got.Epoch != 2 {
				t.Fatalf("epoch %d after fail-node, want 2", got.Epoch)
			}

			// The first hit encodes and stores the reply, a later hit
			// writes the stored bytes: both are the miss apart from
			// "cached". A no_cache request still encodes the miss bytes.
			hit := bytes.Replace(first, []byte(`"cached":false`), []byte(`"cached":true`), 1)
			for _, which := range []string{"first hit", "later hit"} {
				resp, got := post(t, ts.URL+"/v1/place", body)
				if !bytes.Equal(got, hit) {
					t.Fatalf("%s differs from the miss beyond \"cached\":\n%s\n%s", which, first, got)
				}
				if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
					t.Fatalf("%s: Content-Length %q, body %d bytes", which, cl, len(got))
				}
			}
			noCache, err := json.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if _, got := post(t, ts.URL+"/v1/place", noCache); !bytes.Equal(got, first) {
				t.Fatalf("no_cache reply after hits differs from the miss:\n%s\n%s", first, got)
			}
		})
	}

	// Rising and falling np on one key: misses that grow the stored run,
	// and hits served from its first np ranks, wrapped runs included.
	// Each reply is the full encoder's bytes for a fresh map of its np.
	t.Run("np-rising-falling", func(t *testing.T) {
		for _, base := range []Request{
			{Cluster: "test", Layout: "ncsbh"},
			{Cluster: "test", Oversubscribe: true},
		} {
			for _, np := range []int{5, 9, 17, 40, 33, 17, 2, 1, 48, 100, 60, 49, 3} {
				req := base
				req.NP = np
				wantCached := np <= storedRanks(e, &req)
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				resp, got := post(t, ts.URL+"/v1/place", body)
				if !base.Oversubscribe && np > 48 {
					if resp.StatusCode != http.StatusBadRequest {
						t.Fatalf("%+v: status %d past capacity: %s", req, resp.StatusCode, got)
					}
					continue
				}
				if cl := resp.Header.Get("Content-Length"); resp.StatusCode != http.StatusOK || cl != strconv.Itoa(len(got)) {
					t.Fatalf("%+v: status %d, Content-Length %q, body %d bytes: %.200s", req, resp.StatusCode, cl, len(got), got)
				}
				fresh := req
				fresh.NoCache = true
				r, err := e.Place(context.Background(), &fresh)
				if err != nil {
					t.Fatal(err)
				}
				if want := appendPlaceResponse(nil, req.Cluster, r.Epoch, wantCached, &r.Map); !bytes.Equal(got, want) {
					t.Fatalf("%+v: served\n%.300s\nfresh (cached %v)\n%.300s", req, got, wantCached, want)
				}
			}
		}
	})
}

// TestHTTPNodelessLayout400: a layout without the node level is a
// malformed request.
func TestHTTPNodelessLayout400(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	mux := http.NewServeMux()
	e.Mount(mux)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/place", strings.NewReader(`{"cluster":"test","np":8,"layout":"csbh"}`)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.Bytes())
	}
}

// TestHTTPPEsPerProc400: a policy that places one PU per rank answers a
// request for two with 400 rather than serve one PU each; the LAMA
// serves it, cached or not.
func TestHTTPPEsPerProc400(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	mux := http.NewServeMux()
	e.Mount(mux)
	for _, c := range []struct {
		body   string
		status int
	}{
		{`{"cluster":"test","np":8,"policy":"treematch","pattern":"ring","pes_per_proc":2,"no_cache":true}`, http.StatusBadRequest},
		{`{"cluster":"test","np":8,"policy":"torus","pattern":"ring","pes_per_proc":2,"no_cache":true}`, http.StatusBadRequest},
		{`{"cluster":"test","np":8,"policy":"by-node","pes_per_proc":2}`, http.StatusBadRequest},
		{`{"cluster":"test","np":8,"policy":"scatter","pes_per_proc":2}`, http.StatusBadRequest},
		{`{"cluster":"test","np":8,"policy":"pack","pes_per_proc":2}`, http.StatusBadRequest},
		{`{"cluster":"test","np":8,"layout":"csbn","pes_per_proc":2}`, http.StatusOK},
		{`{"cluster":"test","np":8,"layout":"csbn","pes_per_proc":2,"no_cache":true}`, http.StatusOK},
	} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/place", strings.NewReader(c.body)))
		if w.Code != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.body, w.Code, c.status, w.Body.Bytes())
		}
	}
}

// TestHTTPOversizedBody413 sends bodies past maxBodyBytes to both POST
// endpoints.
func TestHTTPOversizedBody413(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	mux := http.NewServeMux()
	e.Mount(mux)
	huge := `{"cluster":"` + strings.Repeat("a", maxBodyBytes) + `","np":4}`
	for _, path := range []string{"/v1/place", "/v1/clusters/test/events"} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(huge)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %.200s", path, w.Code, w.Body.Bytes())
		}
	}
}

// TestHTTPTrafficBounded sends requests whose traffic pattern, built as
// asked, would need gigabytes to terabytes. Each must be answered without
// building it: the treematch ones with a 400, the by-node one without
// generating traffic at all, since by-node never reads it. The cluster has
// 65536 usable PUs, so the alltoall request passes the capacity check and
// is stopped by the pair bound alone. A request pinned to an epoch the
// cluster has left is refused with 409 before any of that, and its error
// text is pinned byte for byte, since clients match on it.
func TestHTTPTrafficBounded(t *testing.T) {
	sp, err := hw.ParseSpec("1:8:1:1:1:1:64:2")
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{})
	if err := e.Register("huge", &Snapshot{Clu: cluster.SnapshotOf(cluster.Homogeneous(64, sp))}); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	e.Mount(mux)
	const ceiling = 16 << 20 // bytes; generating ring(MaxNP) alone allocates ~200 MB
	for _, c := range []struct {
		body   string
		status int
		reply  string // the exact error body; empty skips the check
	}{
		{fmt.Sprintf(`{"cluster":"huge","np":%d,"policy":"treematch","pattern":"ring"}`, MaxNP), http.StatusBadRequest, ""},
		{`{"cluster":"huge","np":65536,"policy":"treematch","pattern":"alltoall"}`, http.StatusBadRequest, ""},
		{fmt.Sprintf(`{"cluster":"huge","np":%d,"policy":"by-node","pattern":"ring"}`, MaxNP), http.StatusBadRequest, ""},
		{fmt.Sprintf(`{"cluster":"huge","np":%d,"policy":"treematch","pattern":"ring","epoch":7}`, MaxNP), http.StatusConflict,
			`{"error":"core: cluster snapshot is stale: request pinned epoch 7, cluster \"huge\" is at 1"}` + "\n"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/place", strings.NewReader(c.body)))
		runtime.ReadMemStats(&after)
		if w.Code != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.body, w.Code, c.status, w.Body.Bytes())
		}
		if c.reply != "" && w.Body.String() != c.reply {
			t.Errorf("%s: reply %q, want %q", c.body, w.Body.String(), c.reply)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > ceiling {
			t.Errorf("%s: allocated %d bytes, ceiling %d", c.body, grew, ceiling)
		}
		t.Logf("%s: %d %s", c.body, w.Code, strings.TrimSpace(w.Body.String()))
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so measuring the
// handler does not measure a recorder's growing body buffer.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

// serveCachedPlace returns a function that serves one cached np-rank
// placement of the "big" cluster through the handler, from a stored run
// of fill ranks.
func serveCachedPlace(tb testing.TB, fill, np int) func() {
	tb.Helper()
	e := New(Config{})
	if err := e.Register("big", nehalemSnap(tb, 256)); err != nil {
		tb.Fatal(err)
	}
	serveNP := func(np int) {
		body := []byte(fmt.Sprintf(`{"cluster":"big","np":%d}`, np))
		w := &discardWriter{h: http.Header{}}
		e.handlePlace(w, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body)))
		if w.status != 0 && w.status != http.StatusOK {
			tb.Fatalf("np=%d: status %d", np, w.status)
		}
	}
	serveNP(fill) // fill the cache
	serveNP(np)   // and the reply pool
	return func() { serveNP(np) }
}

// TestPlaceReplyAllocsFlatInNP pins the cached reply path: serving 4096
// ranks allocates no more objects, and barely more bytes, than serving
// 64, and so does serving 64 ranks from a stored run of 4096. A hit
// writes the stored run's bytes, so nothing on the path is O(np).
func TestPlaceReplyAllocsFlatInNP(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	measure := func(fill, np int) (allocs, bytesPerOp float64) {
		serve := serveCachedPlace(t, fill, np)
		allocs = testing.AllocsPerRun(50, serve)
		// A GC can empty the reply pool mid-window, and the one buffer
		// regrown then dominates that window's bytes; the least of three
		// windows is the steady state.
		const runs = 50
		bytesPerOp = math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				serve()
			}
			runtime.ReadMemStats(&after)
			bytesPerOp = min(bytesPerOp, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return allocs, bytesPerOp
	}
	smallAllocs, smallBytes := measure(64, 64)
	for _, c := range []struct{ fill, np int }{{4096, 4096}, {4096, 64}} {
		allocs, bytesPerOp := measure(c.fill, c.np)
		t.Logf("np=64: %.1f allocs, %.0f B; np=%d of %d: %.1f allocs, %.0f B", smallAllocs, smallBytes, c.np, c.fill, allocs, bytesPerOp)
		if allocs > smallAllocs+2 {
			t.Errorf("allocs/op: np=%d of %d %.1f vs np=64 %.1f", c.np, c.fill, allocs, smallAllocs)
		}
		if bytesPerOp > smallBytes+4096 {
			t.Errorf("bytes/op: np=%d of %d %.0f vs np=64 %.0f", c.np, c.fill, bytesPerOp, smallBytes)
		}
	}
}

// BenchmarkPlaceReplyCached serves a cached 4096-rank placement (a
// ~240 KB reply) through the /v1/place handler.
func BenchmarkPlaceReplyCached(b *testing.B) {
	serve := serveCachedPlace(b, 4096, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
