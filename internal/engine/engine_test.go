package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/obs"
	"lama/internal/permute"

	_ "lama/internal/place/all"
)

func nehalemSnap(t testing.TB, nodes int) *Snapshot {
	t.Helper()
	sp, ok := hw.Preset("nehalem-ep")
	if !ok {
		t.Fatal("nehalem-ep preset missing")
	}
	return &Snapshot{Clu: cluster.SnapshotOf(cluster.Homogeneous(nodes, sp))}
}

func newTestEngine(t *testing.T, cfg Config) (*Engine, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	if cfg.Obs == nil {
		cfg.Obs = &obs.Observer{Metrics: reg}
	}
	e := New(cfg)
	if err := e.Register("test", nehalemSnap(t, 4)); err != nil {
		t.Fatal(err)
	}
	return e, cfg.Obs.Metrics
}

func TestEnginePlaceCachesByEpoch(t *testing.T) {
	e, reg := newTestEngine(t, Config{})
	req := &Request{Cluster: "test", NP: 16}
	r1, err := e.Place(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.Epoch != 1 || r1.Map.NumRanks() != 16 {
		t.Fatalf("first place: cached=%v epoch=%d ranks=%d", r1.Cached, r1.Epoch, r1.Map.NumRanks())
	}
	r2, err := e.Place(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if &r2.Map.Placements[0] != &r1.Map.Placements[0] {
		t.Fatal("cached response must share the stored map")
	}
	if h := reg.Counter("lama_engine_cache_hits_total").Value(); h != 1 {
		t.Fatalf("hits = %d, want 1", h)
	}
	if m := reg.Counter("lama_engine_cache_misses_total").Value(); m != 1 {
		t.Fatalf("misses = %d, want 1", m)
	}
}

func TestEngineNoCacheBypasses(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	req := &Request{Cluster: "test", NP: 8, NoCache: true}
	if _, err := e.Place(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	r2, err := e.Place(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached {
		t.Fatal("NoCache request served from cache")
	}
	if n := e.cache.len(); n != 0 {
		t.Fatalf("cache holds %d entries after NoCache-only traffic", n)
	}
}

func TestEngineEpochPin(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	if _, err := e.Place(context.Background(), &Request{Cluster: "test", NP: 4, Epoch: 1}); err != nil {
		t.Fatalf("matching epoch pin refused: %v", err)
	}
	_, err := e.Place(context.Background(), &Request{Cluster: "test", NP: 4, Epoch: 7})
	if !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("err = %v, want ErrStaleSnapshot", err)
	}
}

func TestEngineUnknownClusterAndPolicyAndPattern(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	if _, err := e.Place(context.Background(), &Request{Cluster: "nope", NP: 4}); !errors.Is(err, ErrUnknownCluster) {
		t.Fatalf("err = %v, want ErrUnknownCluster", err)
	}
	if _, err := e.Place(context.Background(), &Request{Cluster: "test", NP: 4, Policy: "no-such"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := e.Place(context.Background(), &Request{Cluster: "test", NP: 4, Policy: "treematch", Pattern: "no-such"}); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

// TestEngineRejectsNodelessLayout: a layout without the node level cannot
// assign ranks to nodes, so the engine refuses it under every spelling of
// the lama policy rather than stacking every rank on node 0.
func TestEngineRejectsNodelessLayout(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	for _, policy := range []string{"", "lama"} {
		if r, err := e.Place(context.Background(), &Request{Cluster: "test", NP: 8, Policy: policy, Layout: "csbh"}); err == nil {
			t.Fatalf("policy %q: node-less layout placed %d ranks", policy, r.Map.NumRanks())
		}
	}
}

// TestEngineMapperCapBounded sends three times as many distinct layouts
// as a worker keeps mappers for, twice over, through one worker. The
// worker's mapper map must stay within its cap, and every reply must equal
// MapReference.
func TestEngineMapperCapBounded(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 1})
	snap := e.Snapshot("test").Clu.Cluster()
	var layouts []string
	permute.Each(5, func(perm []int) bool {
		s := make([]byte, len(perm))
		for i, p := range perm {
			s[i] = "nbsch"[p]
		}
		layouts = append(layouts, string(s))
		return len(layouts) < 3*maxWorkerMappers
	})
	for round := 0; round < 2; round++ {
		for _, layout := range layouts {
			r, err := e.Place(context.Background(), &Request{Cluster: "test", NP: 24, Layout: layout, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			ref := &core.Mapper{Cluster: snap, Layout: core.MustParseLayout(layout)}
			want, err := ref.MapReference(24)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&r.Map, want) {
				t.Fatalf("round %d layout %s: reply differs from MapReference", round, layout)
			}
			w := <-e.workers
			n := len(w.mappers)
			e.workers <- w
			if n > maxWorkerMappers {
				t.Fatalf("round %d layout %s: worker holds %d mappers, cap %d", round, layout, n, maxWorkerMappers)
			}
		}
	}
}

func TestEngineNonLamaPolicy(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	r, err := e.Place(context.Background(), &Request{
		Cluster: "test", NP: 8, Policy: "by-node",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Map.NumRanks() != 8 {
		t.Fatalf("by-node placed %d ranks", r.Map.NumRanks())
	}
	// Traffic-aware policy with a server-side pattern.
	r, err = e.Place(context.Background(), &Request{
		Cluster: "test", NP: 8, Policy: "treematch", Pattern: "ring",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Map.NumRanks() != 8 {
		t.Fatalf("treematch placed %d ranks", r.Map.NumRanks())
	}
}

func TestEngineEventSwapPurgesStale(t *testing.T) {
	e, reg := newTestEngine(t, Config{})
	ctx := context.Background()
	r1, err := e.Place(ctx, &Request{Cluster: "test", NP: 48})
	if err != nil {
		t.Fatal(err)
	}
	usedNode2 := false
	for i := range r1.Map.Placements {
		if r1.Map.Placements[i].Node == 2 {
			usedNode2 = true
		}
	}
	if !usedNode2 {
		t.Fatal("baseline map should span node 2")
	}

	epoch, purged, err := e.ApplyEvent("test", &Event{Type: "fail-node", Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || purged != 1 {
		t.Fatalf("event: epoch=%d purged=%d, want 2, 1", epoch, purged)
	}
	if s := reg.Counter("lama_engine_cache_stale_total").Value(); s != 1 {
		t.Fatalf("stale = %d, want 1", s)
	}

	r2, err := e.Place(ctx, &Request{Cluster: "test", NP: 48})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached || r2.Epoch != 2 {
		t.Fatalf("post-swap place: cached=%v epoch=%d", r2.Cached, r2.Epoch)
	}
	for i := range r2.Map.Placements {
		if r2.Map.Placements[i].Node == 2 {
			t.Fatalf("rank %d placed on failed node 2", i)
		}
	}
}

func TestEngineEventNoOpMintsNoEpoch(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	// Fail PUs that are already absent: PU 9999 exists on no preset.
	epoch, purged, err := e.ApplyEvent("test", &Event{Type: "fail-pus", Node: 0, PUs: []int{9999}})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || purged != 0 {
		t.Fatalf("no-op event: epoch=%d purged=%d, want 1, 0", epoch, purged)
	}
}

func TestEngineAddNodeGrows(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	epoch, _, err := e.ApplyEvent("test", &Event{Type: "add-node", Preset: "nehalem-ep"})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("epoch = %d, want 2", epoch)
	}
	if n := e.Snapshot("test").Clu.NumNodes(); n != 5 {
		t.Fatalf("nodes = %d, want 5", n)
	}
	if got := e.Snapshot("test").Clu.Epoch(); got != 2 {
		t.Fatalf("snapshot epoch = %d, want 2", got)
	}
}

func TestEngineShedsWhenOverloaded(t *testing.T) {
	e, reg := newTestEngine(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy the only worker directly so Place cannot get one.
	w := <-e.workers
	defer func() { e.workers <- w }()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var queuedErr error
	go func() {
		defer wg.Done()
		// Fills the queue slot, then blocks on a worker until canceled.
		_, queuedErr = e.Place(ctx, &Request{Cluster: "test", NP: 4})
	}()
	// Wait until the queued request holds the queue slot.
	for len(e.queue) == 0 {
		runtime.Gosched()
	}
	// Queue full: immediate shed.
	_, err := e.Place(context.Background(), &Request{Cluster: "test", NP: 4})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	// Expire the queued request: deadline-aware shed.
	cancel()
	wg.Wait()
	if !errors.Is(queuedErr, ErrOverloaded) {
		t.Fatalf("queued err = %v, want ErrOverloaded", queuedErr)
	}
	if s := reg.Counter("lama_engine_shed_total").Value(); s != 2 {
		t.Fatalf("shed = %d, want 2", s)
	}
}

func TestEngineConcurrentPlacementsAndSwaps(t *testing.T) {
	e, _ := newTestEngine(t, Config{Workers: 4, QueueDepth: 1024, CacheBytes: 32 << 10})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				np := 4 + (g+i)%13
				r, err := e.Place(ctx, &Request{Cluster: "test", NP: np})
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if r.Map.NumRanks() != np {
					t.Errorf("g%d i%d: ranks=%d want %d", g, i, r.Map.NumRanks(), np)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, _, err := e.ApplyEvent("test", &Event{Type: "add-node", Preset: "nehalem-ep"}); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if got := e.Snapshot("test").Clu.Epoch(); got != 6 {
		t.Fatalf("final epoch = %d, want 6", got)
	}
}

func TestEngineClustersSorted(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	if err := e.Register("alpha", nehalemSnap(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("zeta", nehalemSnap(t, 1)); err != nil {
		t.Fatal(err)
	}
	names := e.Clusters()
	want := []string{"alpha", "test", "zeta"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

// lruMap is an n-rank map with one PU a rank, for sizing cache entries.
func lruMap(n int) *core.Map {
	m := &core.Map{Placements: make([]core.Placement, n)}
	for i := range m.Placements {
		m.Placements[i].PUs = []int{i}
	}
	return m
}

func lruKey(cluster string, pub uint64, np int) cacheKey {
	return cacheKey{cluster: cluster, pub: pub, np: np}
}

// checkHeld requires the cache to hold want entries accounted at
// wantBytes, and its gauges to say so.
func checkHeld(t *testing.T, c *lruCache, entries int, wantBytes int64) {
	t.Helper()
	if n, b := c.len(), c.held(); n != entries || b != wantBytes {
		t.Fatalf("cache holds %d entries, %d B; want %d, %d B", n, b, entries, wantBytes)
	}
	if g := c.bytesGauge.Value(); g != float64(wantBytes) {
		t.Fatalf("lama_engine_cache_bytes = %v, want %d", g, wantBytes)
	}
	if g := c.entriesGauge.Value(); g != float64(entries) {
		t.Fatalf("lama_engine_cache_entries = %v, want %d", g, entries)
	}
}

// TestLRUEvictsAndPurges pins the byte bound: eviction by bytes from the
// least recent end, an entry larger than the budget not stored, a longer
// run replacing its key's entry and recounting it, purge subtracting what
// it removes, and a zero budget storing nothing.
func TestLRUEvictsAndPurges(t *testing.T) {
	reg := obs.NewRegistry()
	m := lruMap(16)
	a, b, x := lruKey("c1", 1, 1), lruKey("c1", 1, 2), lruKey("c2", 1, 3)
	one := newEntry(a, m).size

	t.Run("evicts-by-bytes", func(t *testing.T) {
		c := newLRU(2*one+one/2, reg) // room for two entries
		c.put(newEntry(a, m))
		c.put(newEntry(b, m))
		checkHeld(t, c, 2, 2*one)
		c.put(newEntry(x, m)) // evicts a, the least recent
		if c.get(a) != nil {
			t.Fatal("a 2.5-entry budget kept 3 entries")
		}
		if c.get(b) == nil {
			t.Fatal("entry b evicted early")
		}
		checkHeld(t, c, 2, 2*one)
		// A put of a run no longer than the stored one keeps the entry
		// it finds.
		c.put(newEntry(b, lruMap(16)))
		if got := c.get(b); got.m != m {
			t.Fatal("a put of an equal-length run replaced the stored one")
		}
		checkHeld(t, c, 2, 2*one)
	})

	t.Run("over-budget-not-stored", func(t *testing.T) {
		c := newLRU(2*one, reg)
		c.put(newEntry(a, m))
		c.put(newEntry(b, lruMap(64)))
		if c.get(b) != nil {
			t.Fatal("an entry larger than the whole budget was stored")
		}
		checkHeld(t, c, 1, one)
	})

	t.Run("replace-recounts", func(t *testing.T) {
		c := newLRU(3*one, reg)
		c.put(newEntry(a, m))
		c.put(newEntry(b, m))
		long := newEntry(a, lruMap(24))
		c.put(long) // a longer run on a's key replaces its entry
		if c.get(a) != long {
			t.Fatal("a longer run did not replace the stored one")
		}
		checkHeld(t, c, 2, one+long.size)
		c.put(newEntry(a, lruMap(20))) // a shorter one keeps it
		if c.get(a) != long {
			t.Fatal("a shorter run replaced the stored one")
		}
		checkHeld(t, c, 2, one+long.size)
		// b is now the least recent: the third entry evicts it.
		c.put(newEntry(x, m))
		if c.get(b) != nil {
			t.Fatal("replacement left the cache past its budget")
		}
		checkHeld(t, c, 2, one+long.size)
		// A run past the whole budget stores nothing and keeps the old.
		c.put(newEntry(a, lruMap(64)))
		if c.get(a) != long {
			t.Fatal("a run past the whole budget replaced the stored one")
		}
		checkHeld(t, c, 2, one+long.size)
	})

	t.Run("purge-subtracts", func(t *testing.T) {
		c := newLRU(10*one, reg)
		c.put(newEntry(a, m))
		c.put(newEntry(b, m))
		c.put(newEntry(x, m))
		if purged := c.purge("c1", 2); purged != 2 {
			t.Fatalf("purged = %d, want 2 (only c1@1)", purged)
		}
		if c.get(x) == nil {
			t.Fatal("purge removed another cluster's entry")
		}
		checkHeld(t, c, 1, one)
	})

	t.Run("disabled", func(t *testing.T) {
		c := newLRU(0, reg)
		c.put(newEntry(a, m))
		if c.get(a) != nil {
			t.Fatal("disabled cache stored an entry")
		}
		if c.len() != 0 || c.held() != 0 {
			t.Fatalf("disabled cache holds %d entries, %d B", c.len(), c.held())
		}
		e, _ := newTestEngine(t, Config{CacheBytes: -1})
		req := &Request{Cluster: "test", NP: 8}
		for range 2 {
			r, err := e.Place(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if r.Cached || r.entry != nil {
				t.Fatal("CacheBytes -1 served a hit")
			}
		}
	})
}

// TestCachePutBelowFloorDropped: a placement mapped at epoch E that
// finishes after a Swap to E+1 purged the cache stores nothing, so it
// cannot hold budget no request will ever hit. Other clusters and the
// current epoch still store.
func TestCachePutBelowFloorDropped(t *testing.T) {
	c := newLRU(1<<20, nil)
	m := lruMap(16)
	c.put(newEntry(lruKey("c1", 1, 8), m))
	if purged := c.purge("c1", 2); purged != 1 {
		t.Fatalf("purged = %d, want 1", purged)
	}
	c.put(newEntry(lruKey("c1", 1, 16), m)) // the late put
	if n, b := c.len(), c.held(); n != 0 || b != 0 {
		t.Fatalf("late put for a purged epoch stored: %d entries, %d B", n, b)
	}
	c.put(newEntry(lruKey("c1", 2, 16), m))
	c.put(newEntry(lruKey("c2", 1, 16), m))
	if n := c.len(); n != 2 {
		t.Fatalf("len = %d after puts at the floor and for another cluster, want 2", n)
	}
}

// TestEngineReRegisterCaches: Register replacing a cluster that has
// swapped past epoch 1 resets its cache floor, so placements on the fresh
// epoch-1 snapshot are still cached.
func TestEngineReRegisterCaches(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	if _, _, err := e.ApplyEvent("test", &Event{Type: "fail-node", Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("test", nehalemSnap(t, 4)); err != nil {
		t.Fatal(err)
	}
	req := &Request{Cluster: "test", NP: 16}
	for _, wantCached := range []bool{false, true} {
		r, err := e.Place(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached != wantCached || r.Epoch != 1 {
			t.Fatalf("after re-register: cached=%v epoch=%d, want %v, 1", r.Cached, r.Epoch, wantCached)
		}
	}
}

// TestCacheKeyedByEpoch pins the publication as a key field: a Swap to a
// Sig-equal snapshot makes the next request a miss at the new epoch, and
// the hit after it serves stored bytes carrying that epoch. The two
// snapshots reach the same state by different derivations: two PUs of
// node 0 failed at once (epoch 2) or one after the other (epoch 3).
func TestCacheKeyedByEpoch(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	ctx := context.Background()
	req := &Request{Cluster: "test", NP: 16}
	base := e.Snapshot("test").Clu
	once, n := base.FailPUs(0, hw.NewCPUSet(0, 1))
	if n != 2 || once.Epoch() != 2 {
		t.Fatalf("FailPUs(0, {0,1}): changed %d, epoch %d", n, once.Epoch())
	}
	first, _ := base.FailPUs(0, hw.NewCPUSet(0))
	twice, _ := first.FailPUs(0, hw.NewCPUSet(1))
	if twice.Sig() != once.Sig() || twice.Epoch() != 3 {
		t.Fatalf("stepwise FailPUs: sig equal=%v epoch=%d", twice.Sig() == once.Sig(), twice.Epoch())
	}
	if _, err := e.Swap("test", &Snapshot{Clu: once}); err != nil {
		t.Fatal(err)
	}
	for _, wantCached := range []bool{false, true} {
		r, err := e.Place(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached != wantCached || r.Epoch != 2 {
			t.Fatalf("epoch 2: cached=%v epoch=%d, want %v, 2", r.Cached, r.Epoch, wantCached)
		}
	}
	if _, err := e.Swap("test", &Snapshot{Clu: twice}); err != nil {
		t.Fatal(err)
	}
	miss, err := e.Place(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cached || miss.Epoch != 3 {
		t.Fatalf("after the swap: cached=%v epoch=%d, want a miss at epoch 3", miss.Cached, miss.Epoch)
	}
	hit, err := e.Place(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if reply := replyOf("test", hit); !hit.Cached || !bytes.HasPrefix(reply, []byte(`{"cluster":"test","epoch":3,"cached":true,`)) {
		t.Fatalf("hit after the swap: cached=%v reply %.60q", hit.Cached, reply)
	}
}

// TestEnginePlaceHitAllocs pins the hit path: Engine.Place allocates only
// its Response, whether it serves the stored run whole or its first np
// ranks.
func TestEnginePlaceHitAllocs(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	ctx := context.Background()
	req := &Request{Cluster: "test", NP: 64, Layout: "scbnh", Pattern: "ring", Bytes: 4096}
	if _, err := e.Place(ctx, req); err != nil { // the miss stores the run
		t.Fatal(err)
	}
	for _, np := range []int{64, 40} {
		req.NP = np
		allocs := testing.AllocsPerRun(100, func() {
			if r, err := e.Place(ctx, req); err != nil || !r.Cached {
				t.Fatalf("hit: cached=%v err=%v", r != nil && r.Cached, err)
			}
		})
		if allocs > 1 {
			t.Fatalf("Engine.Place hit at np %d of 64: %.1f allocs, want <= 1", np, allocs)
		}
	}
}

// TestEngineRejectsNonFiniteBytes: a NaN or infinite Bytes is a
// malformed request, refused before it can become a cache key.
func TestEngineRejectsNonFiniteBytes(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := e.Place(context.Background(), &Request{Cluster: "test", NP: 8, Bytes: b})
		if err == nil || statusFor(err) != http.StatusBadRequest {
			t.Fatalf("bytes %v: err = %v, want a 400-class error", b, err)
		}
	}
	if n := e.cache.len(); n != 0 {
		t.Fatalf("cache holds %d entries after rejected requests", n)
	}
}

// TestCacheBytesTracksHeap holds lama_engine_cache_bytes to the heap the
// cache really keeps: ~40 entries at np 64, 1024 and 2048, each hit once,
// must grow HeapAlloc by the gauge ±25%. Runs on one key share an entry,
// so each np is placed on a key of its own: 13 layouts, each with a
// plain, an oversubscribing and a two-PU oversubscribing request.
func TestCacheBytesTracksHeap(t *testing.T) {
	reg := obs.NewRegistry()
	// One worker, so the warm-up builds the only mappers there are.
	e := New(Config{Workers: 1, Obs: &obs.Observer{Metrics: reg}})
	if err := e.Register("big", nehalemSnap(t, 128)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var layouts []string
	permute.Each(5, func(perm []int) bool {
		s := make([]byte, len(perm))
		for i, p := range perm {
			s[i] = "nbsch"[p]
		}
		layouts = append(layouts, string(s))
		return len(layouts) < 13
	})
	var reqs []Request
	for _, base := range []Request{{NP: 2048}, {NP: 1024, Oversubscribe: true}, {NP: 64, PEsPerProc: 2, Oversubscribe: true}} {
		for i, layout := range layouts {
			r := base
			r.Cluster, r.NP, r.Layout = "big", base.NP-i, layout
			reqs = append(reqs, r)
		}
	}
	for _, r := range reqs { // warm the mappers' scratch, uncached
		r.NoCache = true
		if _, err := e.Place(ctx, &r); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the reply pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := range reqs {
		for range 2 { // the miss stores the run, the hit serves it
			if _, err := e.Place(ctx, &reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	grew := float64(heap()) - float64(before)
	gauge := reg.Gauge("lama_engine_cache_bytes").Value()
	if n := reg.Gauge("lama_engine_cache_entries").Value(); n != float64(len(reqs)) {
		t.Fatalf("lama_engine_cache_entries = %v, want %d", n, len(reqs))
	}
	t.Logf("%d entries: gauge %.0f B, heap grew %.0f B (%.2fx)", len(reqs), gauge, grew, grew/gauge)
	if grew < 0.75*gauge || grew > 1.25*gauge {
		t.Fatalf("heap grew %.0f B against a gauge of %.0f B: outside ±25%%", grew, gauge)
	}
	runtime.KeepAlive(e)
}
