package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lama/internal/core"
	"lama/internal/engine"
	"lama/internal/obs"
	"lama/internal/place"
)

func testServer(t *testing.T) (*engine.Engine, *httptest.Server) {
	t.Helper()
	eng, srv, err := buildDaemon("smoke=4xnehalem-ep", engine.Config{
		Workers: 4, QueueDepth: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return eng, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestLamadSmoke is the CI smoke scenario: 100 concurrent placements
// against the daemon's HTTP surface, cache hit counters verified through
// /metrics.json, then a failure event that swaps the snapshot and forces
// the next placement cold on the new epoch.
func TestLamadSmoke(t *testing.T) {
	_, ts := testServer(t)
	placeURL := ts.URL + "/v1/place"
	req := map[string]any{"cluster": "smoke", "np": 32, "layout": "csbnh"}

	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, placeURL, req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var out struct {
				Epoch      uint64 `json:"epoch"`
				NP         int    `json:"np"`
				Placements []struct {
					Rank int   `json:"rank"`
					Node int   `json:"node"`
					PUs  []int `json:"pus"`
				} `json:"placements"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				errs <- err
				return
			}
			if out.NP != 32 || len(out.Placements) != 32 || out.Epoch != 1 {
				errs <- fmt.Errorf("bad response: np=%d placements=%d epoch=%d",
					out.NP, len(out.Placements), out.Epoch)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	hits, misses := cacheCounters(t, ts)
	if hits+misses != 100 {
		t.Fatalf("hits+misses = %d+%d, want 100", hits, misses)
	}
	if hits == 0 {
		t.Fatal("no cache hits across 100 identical requests")
	}

	// Cluster listing reflects the registered snapshot.
	resp, err := http.Get(ts.URL + "/v1/clusters")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name  string `json:"name"`
		Epoch uint64 `json:"epoch"`
		Nodes int    `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rows) != 1 || rows[0].Name != "smoke" || rows[0].Epoch != 1 || rows[0].Nodes != 4 {
		t.Fatalf("clusters = %+v", rows)
	}

	// A failure event mints epoch 2 and purges the cached placement.
	resp, body := postJSON(t, ts.URL+"/v1/clusters/smoke/events",
		map[string]any{"type": "fail-node", "node": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("event status %d: %s", resp.StatusCode, body)
	}
	var ack struct {
		Epoch  uint64 `json:"epoch"`
		Purged int    `json:"purged"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Epoch != 2 || ack.Purged != 1 {
		t.Fatalf("event ack = %+v, want epoch 2, purged 1", ack)
	}

	resp, body = postJSON(t, placeURL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap place status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Epoch      uint64 `json:"epoch"`
		Cached     bool   `json:"cached"`
		Placements []struct {
			Node int `json:"node"`
		} `json:"placements"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 2 || out.Cached {
		t.Fatalf("post-swap place: epoch=%d cached=%v", out.Epoch, out.Cached)
	}
	for _, p := range out.Placements {
		if p.Node == 1 {
			t.Fatal("placed on failed node 1")
		}
	}
}

// cacheCounters scrapes /metrics.json the way the CI smoke job does.
func cacheCounters(t *testing.T, ts *httptest.Server) (hits, misses int64) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters["lama_engine_cache_hits_total"], snap.Counters["lama_engine_cache_misses_total"]
}

// TestLamadGCGauges: lamad's /metrics and /metrics.json carry the GC
// gauges, read at the scrape, so an operator sees the collector's cycles
// and CPU time without a profile.
func TestLamadGCGauges(t *testing.T) {
	_, ts := testServer(t)
	runtime.GC()
	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	cycles, ok := snap.Gauges["lama_go_gc_cycles"]
	if !ok || cycles < 1 {
		t.Fatalf("/metrics.json lama_go_gc_cycles = %g (present %v) after a collection", cycles, ok)
	}
	if _, ok := snap.Gauges["lama_go_gc_cpu_seconds"]; !ok {
		t.Fatal("/metrics.json lacks lama_go_gc_cpu_seconds")
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lama_go_gc_cycles", "lama_go_gc_cpu_seconds"} {
		if !strings.Contains(string(text), "\n"+name+" ") {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}

func TestLamadErrorStatuses(t *testing.T) {
	_, ts := testServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/place", map[string]any{"cluster": "nope", "np": 4})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cluster status = %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/place", map[string]any{"cluster": "smoke", "np": 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("np=0 status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/place", map[string]any{"cluster": "smoke", "np": 4, "epoch": 9})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale epoch status = %d, want 409", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/clusters/smoke/events", map[string]any{"type": "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad event status = %d, want 400", resp.StatusCode)
	}
}

func TestLamadBuildErrors(t *testing.T) {
	for _, def := range []string{"noequals", "bad=3yfig2", "bad=0xfig2", ""} {
		if _, _, err := buildDaemon(def, engine.Config{}); err == nil {
			t.Errorf("buildDaemon(%q) accepted", def)
		}
	}
}

// TestLamadRejectsDuplicateClusterNames: a name defined twice in
// -clusters is an error, not a silent overwrite by the later definition.
func TestLamadRejectsDuplicateClusterNames(t *testing.T) {
	_, _, err := buildDaemon("a=4xnehalem-ep,b=2xfig2,a=8xfig2", engine.Config{})
	if !errors.Is(err, errDuplicateCluster) || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("buildDaemon with a duplicate name: err = %v, want errDuplicateCluster naming \"a\"", err)
	}
}

func TestLamadVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "lamad go") {
		t.Fatalf("version output = %q", buf.String())
	}
}

// TestLamadDrainsInFlightOnShutdown holds a placement request in the
// handler until shutdown has begun, then lets it finish: the caller must
// still get its full 200 reply, and the server must then stop cleanly.
func TestLamadDrainsInFlightOnShutdown(t *testing.T) {
	_, daemon, err := buildDaemon("smoke=4xnehalem-ep", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	handler := daemon.Handler()
	started, draining := make(chan struct{}), make(chan struct{})
	srv := obs.NewServer(nil, nil)
	srv.Handler().Handle("/v1/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-draining
		handler.ServeHTTP(w, r)
	}))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)

	type reply struct {
		status int
		body   []byte
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/place", "application/json",
			strings.NewReader(`{"cluster":"smoke","np":32}`))
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- reply{resp.StatusCode, body, err}
	}()
	<-started
	go func() { done <- srv.Close() }()
	waitRefused(t, addr)
	close(draining)
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request dropped by shutdown: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("status %d: %s", r.status, r.body)
	}
	var out engine.PlaceResponseJSON
	if err := json.Unmarshal(r.body, &out); err != nil {
		t.Fatalf("truncated reply: %v", err)
	}
	if out.NP != 32 || len(out.Placements) != 32 {
		t.Fatalf("reply np=%d placements=%d, want 32", out.NP, len(out.Placements))
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// waitRefused returns once addr refuses connections: the listener is
// closed, so the stop path has begun.
func waitRefused(t *testing.T, addr string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		conn.Close()
	}
	t.Fatalf("%s still accepts connections 5s after the stop", addr)
}

// startLamad runs lamad on a free port with args and returns its
// address, the channel main feeds SIGTERM into, and run's result.
func startLamad(t *testing.T, args ...string) (string, chan<- os.Signal, <-chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	stop, done := make(chan os.Signal, 1), make(chan error, 1)
	go func() {
		err := run(append([]string{"-listen", "127.0.0.1:0"}, args...), pw, stop)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("lamad printed no address: %v", <-done)
	}
	addr, ok := strings.CutPrefix(sc.Text(), "lamad: serving placements on http://")
	if !ok {
		t.Fatalf("first line %q does not announce the address", sc.Text())
	}
	go io.Copy(io.Discard, pr) // the cluster lines
	return addr, stop, done
}

// TestLamadStopEndsEventFollowers: an /events follower (follow is the
// default) must not hold up the stop. run returns nil at once, and the
// follower reads the end of its stream.
func TestLamadStopEndsEventFollowers(t *testing.T) {
	addr, stop, done := startLamad(t, "-clusters", "smoke=4xnehalem-ep")
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("run still draining 1s after the stop with a follower attached")
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("follower did not read EOF: %v", err)
	}
	if !strings.Contains(string(body), `"event":"register"`) {
		t.Fatalf("follower stream = %q, want the register event", body)
	}
}

// holdPolicy is by-slot behind a gate: each Place reports on entered,
// then waits for release.
type holdPolicy struct {
	entered chan struct{}
	release chan struct{}
}

func (holdPolicy) Name() string { return "test-hold" }

func (p holdPolicy) Place(ctx context.Context, req *place.Request) (*core.Map, error) {
	p.entered <- struct{}{}
	<-p.release
	bySlot, _ := place.Lookup("by-slot")
	return bySlot.Place(ctx, req)
}

// TestLamadDrainsUnderLoad fires the stop while 48 placements are in
// flight, each held inside its policy: every one must still get its
// complete 200 reply with the np it asked for, and run must return nil.
func TestLamadDrainsUnderLoad(t *testing.T) {
	const callers = 48
	hold := holdPolicy{make(chan struct{}, callers), make(chan struct{})}
	place.Register(hold)
	addr, stop, done := startLamad(t, "-clusters", "smoke=8xnehalem-ep",
		"-workers", strconv.Itoa(callers), "-queue", strconv.Itoa(2*callers))

	type reply struct {
		np, status int
		body       []byte
		err        error
	}
	replies := make(chan reply, callers)
	for i := 0; i < callers; i++ {
		np := 8 + i
		go func() {
			resp, err := http.Post("http://"+addr+"/v1/place", "application/json", strings.NewReader(
				fmt.Sprintf(`{"cluster":"smoke","np":%d,"policy":"test-hold","no_cache":true}`, np)))
			if err != nil {
				replies <- reply{np: np, err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			replies <- reply{np, resp.StatusCode, body, err}
		}()
	}
	for entered := 0; entered < callers; {
		select {
		case <-hold.entered:
			entered++
		case r := <-replies:
			t.Fatalf("np %d answered before the stop: status %d, err %v: %s", r.np, r.status, r.err, r.body)
		}
	}
	stop <- syscall.SIGTERM
	waitRefused(t, addr)
	close(hold.release)
	for i := 0; i < callers; i++ {
		r := <-replies
		if r.err != nil {
			t.Errorf("np %d: in-flight request dropped by the stop: %v", r.np, r.err)
			continue
		}
		var out engine.PlaceResponseJSON
		if r.status != http.StatusOK {
			t.Errorf("np %d: status %d: %s", r.np, r.status, r.body)
		} else if err := json.Unmarshal(r.body, &out); err != nil {
			t.Errorf("np %d: truncated reply: %v", r.np, err)
		} else if out.NP != r.np || len(out.Placements) != r.np {
			t.Errorf("reply np=%d placements=%d, want %d", out.NP, len(out.Placements), r.np)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}
