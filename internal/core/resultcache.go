package core

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"shark/internal/cluster"
	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

// ResultCache is the opt-in cache of whole statement results for
// deterministic read-only queries. Entries are keyed on (normalized
// statement, bound argument values, engine options, input-table
// versions) and stored as evictable blocks in the cluster's tiered
// block stores, so cached results participate in the same LRU/spill
// economy as cached table partitions. A per-session byte quota bounds
// how much of the cluster a session's results may occupy; the session
// evicts its own least-recently-used results past the quota, and
// blocks the store's LRU claims are reconciled back into the
// accounting (promptly via the cluster's eviction feed, or lazily at
// the next lookup).
type ResultCache struct {
	cl    *cluster.Cluster
	owner string // session tag; namespaces the block keys
	quota int64

	mu      sync.Mutex
	entries map[string]*list.Element // full key → entry
	lru     *list.List
	bytes   int64

	hits   atomic.Int64
	misses atomic.Int64
}

type resultEntry struct {
	key      string
	blockKey string
	worker   int
	size     int64
}

// cachedResult is the block-store value: the result's body plus the
// full key, re-checked on read so a hash collision in the block key can
// never serve the wrong statement's rows.
type cachedResult struct {
	key    string
	schema row.Schema
	body   *columnar.Body
}

const resultKeyPrefix = "rescache/"

// NewResultCache creates a result cache over the cluster's block
// stores with the given byte quota.
func NewResultCache(cl *cluster.Cluster, owner string, quota int64) *ResultCache {
	return &ResultCache{
		cl:      cl,
		owner:   owner,
		quota:   quota,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// BlockKeyPrefix returns the prefix of every block this cache owns in
// the cluster stores — the cluster's eviction subscriber dispatches on
// it.
func (c *ResultCache) BlockKeyPrefix() string {
	return resultKeyPrefix + c.owner + "/"
}

// Stats reports cumulative hits and misses.
func (c *ResultCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Bytes returns the bytes currently charged against the quota.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// get returns the cached result for the key, or nil. A key whose
// block the store has since evicted counts as a miss and is dropped
// from the accounting.
func (c *ResultCache) get(key string) *Result {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	e := el.Value.(*resultEntry)
	c.lru.MoveToFront(el)
	c.mu.Unlock()

	v, _ := c.cl.Worker(e.worker).Store().Get(e.blockKey)
	cr, _ := v.(*cachedResult)
	if cr == nil || cr.key != key {
		c.drop(key)
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return &Result{Schema: cr.schema, Body: cr.body}
}

// put stores a result's body, charged at its size (Body.Bytes), then
// enforces the quota by evicting this session's least-recently-used
// results. Results larger than the quota are not cached.
func (c *ResultCache) put(key string, res *Result) {
	size := res.Body.Bytes()
	if size > c.quota {
		return
	}
	worker := int(fnvHash(key) % uint64(c.cl.NumWorkers()))
	blockKey := c.BlockKeyPrefix() + fmt.Sprintf("%016x", fnvHash(key))
	if !c.cl.Worker(worker).Store().Put(blockKey, &cachedResult{key: key, schema: res.Schema, body: res.Body}, size, cluster.Class{}) {
		return
	}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// Racing put of the same key: keep one accounting entry.
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[key] = c.lru.PushFront(&resultEntry{key: key, blockKey: blockKey, worker: worker, size: size})
	c.bytes += size
	var victims []*resultEntry
	for c.bytes > c.quota && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*resultEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		victims = append(victims, e)
	}
	c.mu.Unlock()
	for _, e := range victims {
		c.cl.Worker(e.worker).Store().Delete(e.blockKey)
	}
}

// drop removes one key's accounting entry.
func (c *ResultCache) drop(key string) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*resultEntry)
		c.lru.Remove(el)
		delete(c.entries, key)
		c.bytes -= e.size
	}
	c.mu.Unlock()
}

// ReleaseEvicted reconciles a store-initiated eviction (the cluster
// LRU reclaimed one of this cache's blocks for hotter data) back into
// the byte accounting. Spilled blocks stay: they still serve from the
// disk tier.
func (c *ResultCache) ReleaseEvicted(blockKey string, spilled bool) {
	if spilled {
		return
	}
	c.mu.Lock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*resultEntry)
		if e.blockKey == blockKey {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			c.bytes -= e.size
			break
		}
	}
	c.mu.Unlock()
}

// Close deletes every block this cache still owns in the stores.
func (c *ResultCache) Close() {
	c.mu.Lock()
	var all []*resultEntry
	for el := c.lru.Front(); el != nil; el = el.Next() {
		all = append(all, el.Value.(*resultEntry))
	}
	c.entries = make(map[string]*list.Element)
	c.lru = list.New()
	c.bytes = 0
	c.mu.Unlock()
	for _, e := range all {
		c.cl.Worker(e.worker).Store().Delete(e.blockKey)
	}
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// cacheableSelect reports whether a bound statement is eligible for
// the result cache: a SELECT whose every function call resolves to a
// deterministic built-in (scalar or aggregate). Statements calling
// UDFs are excluded — the engine cannot see whether a user function
// is pure — as is anything that mutates state (only SELECT reaches
// here with rows anyway).
func cacheableSelect(sel *sqlparse.SelectStmt) bool {
	ok := true
	sqlparse.WalkSelect(sel, true, nil, func(e *sqlparse.Expr) {
		sqlparse.WalkExpr(*e, func(x sqlparse.Expr) bool {
			if f, isCall := x.(*sqlparse.FuncCall); isCall && !plan.IsAggregate(f.Name) {
				if _, builtin := expr.LookupBuiltin(f.Name); !builtin {
					ok = false
				}
			}
			return ok
		})
	})
	return ok
}

// inputTables collects the base tables a bound SELECT reads,
// lowercased, sorted, deduplicated — the result-cache key's
// invalidation component.
func inputTables(sel *sqlparse.SelectStmt) []string {
	seen := map[string]bool{}
	sqlparse.WalkSelect(sel, true, func(r *sqlparse.TableRef) {
		if r.Sub == nil && r.Name != "" {
			seen[strings.ToLower(r.Name)] = true
		}
	}, nil)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// resultKey builds the full result-cache key: the statement's
// normalized text and bound arguments, the session's engine options,
// and each input table's name + version. The versions are read before
// execution; any later write bumps them, so subsequent lookups key
// elsewhere and the stale entry ages out.
func (s *Session) resultKey(norm string, args row.Row, tables []string) string {
	var b strings.Builder
	b.WriteString(norm)
	b.WriteByte(0)
	for _, a := range args {
		// Type-tagged rendering: int64(1) and "1" must key apart.
		fmt.Fprintf(&b, "%T:%s", a, row.FormatValue(a))
		b.WriteByte(0)
	}
	b.WriteString(s.optsFingerprint())
	for _, t := range tables {
		fmt.Fprintf(&b, "\x00%s@%d", t, s.Cat.TableVersion(t))
	}
	return b.String()
}
