package engine

import (
	"container/list"
	"sync"
	"unsafe"

	"lama/internal/core"
	"lama/internal/obs"
	"lama/internal/place"
)

// cacheKey identifies one stored placement run. Every field but np is
// load-bearing for every policy. pub is the engine's publication number
// of the snapshot the run was mapped on: every Register and Swap mints a
// new one and none is reused, so an entry is served only for the snapshot
// it was mapped on, even where a rollback re-register and replayed events
// reach an epoch, or a snapshot, published before. Policy, layout, pes
// and oversubscribe select the run; pattern and bytes do too, but only
// for a place.TrafficAware policy, the one kind that reads them.
//
// np is in the key only for a policy that is not place.PrefixClosed. For
// a prefix-closed one (the LAMA, whose np is only the stop test of its
// outer loop, and the oblivious baselines) np is 0: the entry holds the
// longest run computed so far, and any np up to its length is served from
// that run's first np ranks.
type cacheKey struct {
	cluster        string
	pub            uint64
	policy, layout string
	pattern        string
	bytes          float64
	pes            int
	oversubscribe  bool
	np             int
}

// keyOf derives the cache key for a request against a publication, folding
// equivalent spellings together: policy "" is "lama", layout "" is
// "csbnh" and pes_per_proc <= 0 is 1, as the mapper reads them, and a
// policy that reads no traffic ignores pattern and bytes. It
// reports whether the policy is prefix-closed, and so left np out. The
// caller has rejected a NaN Bytes: it would make a key that equals
// nothing, not even itself.
func keyOf(req *Request, pub uint64) (cacheKey, bool) {
	k := cacheKey{
		cluster: req.Cluster, pub: pub,
		policy: req.Policy, layout: req.Layout, pes: max(req.PEsPerProc, 1),
		oversubscribe: req.Oversubscribe, np: req.NP,
	}
	if k.policy == "" {
		k.policy = "lama"
	}
	if k.layout == "" {
		k.layout = "csbnh"
	}
	p, _ := place.Lookup(k.policy)
	if _, reads := p.(place.TrafficAware); reads {
		k.pattern, k.bytes = req.Pattern, req.Bytes
	}
	_, closed := p.(place.PrefixClosed)
	if closed {
		k.np = 0
	}
	return k, closed
}

// cacheEntry is one LRU slot: a run of L ranks, its placements encoded
// once as the body of a /v1/place reply's "placements" array, where each
// rank's object ends in that body, and the bytes the entry is accounted
// at. A reply for np <= L writes its own header, body[:off[np-1]] and the
// closing bytes.
type cacheEntry struct {
	key  cacheKey
	m    *core.Map
	body []byte
	off  []int // off[k] is the end of rank k's object in body
	size int64
}

// newEntry encodes a run for the cache. Nothing changes it afterwards,
// so replies and callers may share it.
func newEntry(key cacheKey, m *core.Map) *cacheEntry {
	ce := &cacheEntry{key: key, m: m, off: make([]int, m.NumRanks())}
	bp := replyBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	for i := range m.Placements {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendPlacement(buf, &m.Placements[i])
		ce.off[i] = len(buf)
	}
	// A slice of its own whose len is its cap, so the cache accounts
	// exactly what it holds.
	ce.body = make([]byte, len(buf))
	copy(ce.body, buf)
	putReplyBuf(bp, buf)
	ce.size = ce.measure()
	return ce
}

// prefix returns the stored placements bytes of the first np ranks.
func (ce *cacheEntry) prefix(np int) []byte { return ce.body[:ce.off[np-1]] }

// entryOverhead is the heap an entry costs beyond its map, body, offsets
// and key strings: the cacheEntry, its list element, its index slot and
// the core.Map header.
const entryOverhead = 384

// measure computes the entry's accounted bytes from what it holds.
func (ce *cacheEntry) measure() int64 {
	k := &ce.key
	n := entryOverhead + cap(ce.body) + cap(ce.off)*int(unsafe.Sizeof(int(0))) +
		len(k.cluster) + len(k.policy) + len(k.layout) + len(k.pattern) +
		cap(ce.m.Placements)*int(unsafe.Sizeof(core.Placement{})) +
		cap(ce.m.SweepEnds)*int(unsafe.Sizeof(int(0)))
	for i := range ce.m.Placements {
		n += cap(ce.m.Placements[i].PUs) * int(unsafe.Sizeof(int(0)))
	}
	return int64(n)
}

// lruCache is a mutex-guarded LRU of placement results, bounded by the
// bytes its entries hold. A budget of 0 disables it (get always misses,
// put drops).
type lruCache struct {
	mu     sync.Mutex
	budget int64
	//lama:guards mu
	order *list.List                 // front = most recent; values are *cacheEntry
	index map[cacheKey]*list.Element //lama:guards mu
	bytes int64                      //lama:guards mu
	// floor is the highest publication each cluster has been purged to:
	// a put below it is for a snapshot already replaced, and is dropped.
	// It only rises, so purges that arrive out of order cannot lower it.
	floor map[string]uint64 //lama:guards mu

	bytesGauge, entriesGauge *obs.Gauge
}

func newLRU(budget int64, reg *obs.Registry) *lruCache {
	return &lruCache{
		budget:       budget,
		order:        list.New(),
		index:        map[cacheKey]*list.Element{},
		floor:        map[string]uint64{},
		bytesGauge:   reg.Gauge("lama_engine_cache_bytes"),
		entriesGauge: reg.Gauge("lama_engine_cache_entries"),
	}
}

// enabled reports whether the cache stores anything.
func (c *lruCache) enabled() bool { return c.budget > 0 }

// get returns the entry stored under key, promoted, or nil.
func (c *lruCache) get(key cacheKey) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// put stores an entry, evicting from the back past the budget. An entry
// already under the key is kept, promoted, unless the new run is longer:
// runs on one key are prefixes of one another, so the longer serves every
// request the shorter did. A put below the cluster's purge floor, or of
// an entry larger than the whole budget, stores nothing.
func (c *lruCache) put(ce *cacheEntry) {
	if ce.size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ce.key.pub < c.floor[ce.key.cluster] {
		return
	}
	if el, ok := c.index[ce.key]; ok {
		if ce.m.NumRanks() <= el.Value.(*cacheEntry).m.NumRanks() {
			c.order.MoveToFront(el)
			return
		}
		c.removeLocked(el)
	}
	c.index[ce.key] = c.order.PushFront(ce)
	c.bytes += ce.size
	c.evictLocked()
}

// purge raises the named cluster's put floor to pub, evicts its entries
// below the floor, and reports how many it removed. It walks the LRU list
// (ordered, deterministic) rather than ranging over the index map.
func (c *lruCache) purge(clusterName string, pub uint64) int {
	if c.budget == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	floor := max(c.floor[clusterName], pub)
	c.floor[clusterName] = floor
	purged := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		ce := el.Value.(*cacheEntry)
		if ce.key.cluster == clusterName && ce.key.pub < floor {
			c.removeLocked(el)
			purged++
		}
		el = next
	}
	c.publishLocked()
	return purged
}

// evictLocked drops entries from the back while the cache holds more
// bytes than its budget, then publishes the gauges. The caller holds mu.
func (c *lruCache) evictLocked() {
	for c.bytes > c.budget {
		c.removeLocked(c.order.Back())
	}
	c.publishLocked()
}

// removeLocked unlinks one entry and subtracts its bytes. The caller
// holds mu.
func (c *lruCache) removeLocked(el *list.Element) {
	ce := c.order.Remove(el).(*cacheEntry)
	delete(c.index, ce.key)
	c.bytes -= ce.size
}

// publishLocked sets the byte and entry gauges. The caller holds mu.
func (c *lruCache) publishLocked() {
	c.bytesGauge.Set(float64(c.bytes))
	c.entriesGauge.Set(float64(c.order.Len()))
}

// len reports the live entry count (for tests).
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// held reports the bytes the live entries are accounted at (for tests).
func (c *lruCache) held() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
