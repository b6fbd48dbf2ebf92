package engine

import (
	"context"
	"errors"
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
	if r2.Map != r1.Map {
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
	if !errors.Is(err, core.ErrStaleSnapshot) {
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
			if !reflect.DeepEqual(r.Map, want) {
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
	if got := e.Epoch("test"); got != 2 {
		t.Fatalf("Epoch() = %d, want 2", got)
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
	e, _ := newTestEngine(t, Config{Workers: 4, QueueDepth: 1024, CacheSize: 64})
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
	if got := e.Epoch("test"); got != 6 {
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

func TestLRUEvictsAndPurges(t *testing.T) {
	c := newLRU(2)
	m := &core.Map{}
	c.put("a", "c1", 1, m)
	c.put("b", "c1", 1, m)
	c.put("x", "c2", 1, m) // evicts "a"
	if _, ok := c.get("a"); ok {
		t.Fatal("capacity-2 LRU kept 3 entries")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("entry b evicted early")
	}
	if purged := c.purgeOlder("c1", 2); purged != 1 {
		t.Fatalf("purged = %d, want 1 (only c1@1)", purged)
	}
	if _, ok := c.get("x"); !ok {
		t.Fatal("purge removed another cluster's entry")
	}
	// Disabled cache (capacity -1 → 0 via New, here directly 0).
	d := newLRU(0)
	d.put("k", "c", 1, m)
	if _, ok := d.get("k"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}
