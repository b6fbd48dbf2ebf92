package engine

import (
	"container/list"
	"sync"
	"unsafe"

	"lama/internal/core"
	"lama/internal/obs"
)

// cacheKey identifies one placement result. Sig and epoch are both
// load-bearing. The epoch is, because a hit serves stored reply bytes
// that carry it: Swap purges every older epoch of the cluster, so an
// entry never outlives its epoch, and a Sig-equal snapshot at a new epoch
// misses once and then hits on its own entry. The Sig is, because
// Register can replace a cluster's snapshot at the same epoch.
type cacheKey struct {
	cluster, sig   string
	epoch          uint64
	policy, layout string
	pattern        string
	bytes          float64
	pes            int
	oversubscribe  bool
	np             int
}

// keyOf derives the cache key for a request against a snapshot. The
// caller has rejected a NaN Bytes: it would make a key that equals
// nothing, not even itself.
func keyOf(req *Request, sig string, epoch uint64) cacheKey {
	return cacheKey{
		cluster: req.Cluster, sig: sig, epoch: epoch,
		policy: req.Policy, layout: req.Layout, pattern: req.Pattern,
		bytes: req.Bytes, pes: req.PEsPerProc,
		oversubscribe: req.Oversubscribe, np: req.NP,
	}
}

// cacheEntry is one LRU slot: the placement, the /v1/place reply a hit
// serves (nil until the entry's first hit attaches it), and the bytes the
// entry is accounted at.
type cacheEntry struct {
	key   cacheKey
	m     *core.Map
	reply []byte
	size  int64
}

// entryOverhead is the heap an entry costs beyond its map, reply and key
// strings: the cacheEntry, its list element, its index slot and the
// core.Map header.
const entryOverhead = 384

// measure computes the entry's accounted bytes from what it holds.
func (ce *cacheEntry) measure() int64 {
	k := &ce.key
	n := entryOverhead + cap(ce.reply) +
		len(k.cluster) + len(k.sig) + len(k.policy) + len(k.layout) + len(k.pattern) +
		cap(ce.m.Placements)*int(unsafe.Sizeof(core.Placement{}))
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
	// floor is each cluster's epoch as of its last purge: a put below it
	// is for a snapshot already swapped out, and is dropped.
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

// get returns the cached map and its hit reply (nil until attached), and
// promotes the entry.
func (c *lruCache) get(key cacheKey) (*core.Map, []byte, bool) {
	if c.budget == 0 {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return nil, nil, false
	}
	c.order.MoveToFront(el)
	ce := el.Value.(*cacheEntry)
	return ce.m, ce.reply, true
}

// put inserts an entry, evicting from the back past the budget. A key
// already present keeps its entry, promoted: concurrent misses compute
// equal maps, and the first may already have its reply. A put below the
// cluster's purge floor, or of an entry larger than the whole budget,
// stores nothing.
func (c *lruCache) put(key cacheKey, m *core.Map) {
	if c.budget == 0 {
		return
	}
	ce := &cacheEntry{key: key, m: m}
	ce.size = ce.measure()
	if ce.size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if key.epoch < c.floor[key.cluster] {
		return
	}
	if el, ok := c.index[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.index[key] = c.order.PushFront(ce)
	c.bytes += ce.size
	c.evictLocked()
}

// attach stores reply as the hit reply of key's entry, if the entry still
// holds m and has no reply yet, and returns the reply hits are to serve:
// the one stored first when concurrent first hits race. An entry the
// reply grows past the whole budget is dropped.
func (c *lruCache) attach(key cacheKey, m *core.Map, reply []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return reply
	}
	ce := el.Value.(*cacheEntry)
	if ce.m != m {
		return reply
	}
	if ce.reply != nil {
		return ce.reply
	}
	ce.reply = reply
	ce.size += int64(cap(reply))
	c.bytes += int64(cap(reply))
	if ce.size > c.budget {
		c.removeLocked(el)
	}
	c.evictLocked()
	return reply
}

// purge evicts the named cluster's entries below the given epoch (every
// one of them, when all is set), records the epoch as the cluster's put
// floor, and reports how many entries it removed. It walks the LRU list
// (ordered, deterministic) rather than ranging over the index map.
func (c *lruCache) purge(clusterName string, epoch uint64, all bool) int {
	if c.budget == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.floor[clusterName] = epoch
	purged := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		ce := el.Value.(*cacheEntry)
		if ce.key.cluster == clusterName && (all || ce.key.epoch < epoch) {
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
