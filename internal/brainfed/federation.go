package brainfed

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"livenet/internal/brain"
	"livenet/internal/replication"
	"livenet/internal/runner"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
)

// ErrShardUnreachable is returned when a lookup cannot be served because
// an owning shard is partitioned away and no fallback rung applies.
var ErrShardUnreachable = errors.New("brainfed: peer shard unreachable")

// DefaultMaxStitch bounds the gateway candidates evaluated per
// cross-shard lookup. Stitch cost is two shard-local lookups per
// candidate, so this is the knob that keeps cross-region path decisions
// O(1) in region size.
const DefaultMaxStitch = 4

// Config configures a Federation.
type Config struct {
	// Brain is the per-shard template. N must be the global fleet size
	// (shards keep global node IDs); LastResort and Owns are overridden
	// per shard with its gateways and ownership predicate.
	Brain brain.Config
	// Partition assigns nodes to shards (required).
	Partition *Partition
	// MaxStitch bounds gateway candidates per cross-shard lookup
	// (default DefaultMaxStitch).
	MaxStitch int
	// Replicas > 1 replicates each shard's SIB ops through its own
	// Paxos group of that many replicas (§7.1, per shard instead of
	// global). Requires Brain.Clock to drive message delivery; ignored
	// without one.
	Replicas int
	// Telemetry receives the brainfed.* instrument set.
	Telemetry *telemetry.Registry
}

type fedInstruments struct {
	shards           *telemetry.Gauge
	shardsDown       *telemetry.Gauge
	reports          *telemetry.Counter
	lookupsLocal     *telemetry.Counter
	lookupsCross     *telemetry.Counter
	stitchCandidates *telemetry.Counter
	stitchTransit    *telemetry.Counter
	stitchCacheHits  *telemetry.Counter
	segmentQueries   *telemetry.Counter
	digestBuilds     *telemetry.Counter
	fallbackCached   *telemetry.Counter
	fallbackLocal    *telemetry.Counter
	fallbackFailed   *telemetry.Counter
	epochs           *telemetry.Counter
	epochNs          *telemetry.Histogram
}

func newFedInstruments(r *telemetry.Registry) fedInstruments {
	return fedInstruments{
		shards:           r.Gauge("brainfed.shards"),
		shardsDown:       r.Gauge("brainfed.shards_down"),
		reports:          r.Counter("brainfed.reports"),
		lookupsLocal:     r.Counter("brainfed.lookups_local"),
		lookupsCross:     r.Counter("brainfed.lookups_cross"),
		stitchCandidates: r.Counter("brainfed.stitch_candidates"),
		stitchTransit:    r.Counter("brainfed.stitch_transit"),
		stitchCacheHits:  r.Counter("brainfed.stitch_cache_hits"),
		segmentQueries:   r.Counter("brainfed.segment_queries"),
		digestBuilds:     r.Counter("brainfed.digest_builds"),
		fallbackCached:   r.Counter("brainfed.fallback_cached"),
		fallbackLocal:    r.Counter("brainfed.fallback_local"),
		fallbackFailed:   r.Counter("brainfed.fallback_failed"),
		epochs:           r.Counter("brainfed.epochs"),
		epochNs:          r.Histogram("brainfed.epoch_ns"),
	}
}

type pairKey struct{ src, dst int }

// opStitch is the shard-group log tag for a persisted stitch-cache
// entry (SIB ops use 1 and 2; see brain.ReplicatedBrain). Persisting
// decided cross-shard stitches into the per-shard Paxos log means the
// cached-stitch fallback rung survives a front-end restart: a fresh
// front-end replays the log instead of starting with a cold cache.
// Encoding: [opStitch][src u16][dst u16][npaths u8]([len u8][hop u16]*)*
const opStitch = 3

func encodeStitchOp(src, dst int, paths [][]int) []byte {
	n := 6
	for _, p := range paths {
		n += 1 + 2*len(p)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, opStitch)
	buf = append(buf, byte(src>>8), byte(src), byte(dst>>8), byte(dst))
	buf = append(buf, byte(len(paths)))
	for _, p := range paths {
		buf = append(buf, byte(len(p)))
		for _, h := range p {
			buf = append(buf, byte(h>>8), byte(h))
		}
	}
	return buf
}

func decodeStitchOp(value []byte) (pairKey, [][]int, bool) {
	if len(value) < 6 || value[0] != opStitch {
		return pairKey{}, nil, false
	}
	k := pairKey{
		src: int(value[1])<<8 | int(value[2]),
		dst: int(value[3])<<8 | int(value[4]),
	}
	n := int(value[5])
	off := 6
	paths := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		if len(value) < off+1 {
			return pairKey{}, nil, false
		}
		m := int(value[off])
		off++
		if len(value) < off+2*m {
			return pairKey{}, nil, false
		}
		p := make([]int, m)
		for j := 0; j < m; j++ {
			p[j] = int(value[off])<<8 | int(value[off+1])
			off += 2
		}
		paths = append(paths, p)
	}
	return k, paths, true
}

func samePaths(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// Federation fronts a set of per-region Brain shards behind the
// monolithic Brain's lookup/report API. Reports route to the shard
// owning the reporting node; same-shard lookups are served entirely by
// one shard; cross-shard lookups stitch shard-local segments over the
// gateway meta-graph, using each shard's exported inter-region digest
// for any transit legs. See the package comment for the design.
type Federation struct {
	cfg  Config
	part *Partition
	tel  fedInstruments

	shards []*brain.Brain
	groups []*shardGroup // per-shard Paxos groups; nil without replication

	// rejected is the shards' brain.rejected counter (same registry): the
	// front-end maps node IDs to shards, so it validates them first.
	rejected *telemetry.Counter

	mu          sync.Mutex
	sib         map[uint32]int
	down        []bool
	stitchCache map[pairKey][][]int
	digests     []*digest
	reportCount []uint64
	epochTimes  []time.Duration
}

// digest is a shard's compressed inter-region link summary (ROADMAP
// item 2 follow-up): for each of the shard's exported gateways, the
// best shard-local segment to every foreign gateway, with its Eq. 2
// cost. Digests are what let the front-end stitch cross-shard paths
// through third-region detours — a transit shard's border links enter
// the stitch as a handful of (gateway, gateway, cost) rows refreshed
// once per shard view version, instead of per-lookup queries against
// the transit shard (let alone its full graph).
type digest struct {
	version uint64
	entries []digestEntry
}

type digestEntry struct {
	from, to int // gateway pair; from is owned by the exporting shard
	cost     float64
	path     []int // the exporting shard's best from→to node path
}

// New builds the federation: one Brain per shard, each owning its
// partition slice, with the shard's gateways as its last-resort relays.
func New(cfg Config) *Federation {
	if cfg.Partition == nil {
		panic("brainfed: Config.Partition is required")
	}
	if cfg.MaxStitch <= 0 {
		cfg.MaxStitch = DefaultMaxStitch
	}
	p := cfg.Partition
	f := &Federation{
		cfg:         cfg,
		part:        p,
		tel:         newFedInstruments(cfg.Telemetry),
		rejected:    cfg.Brain.Telemetry.Counter("brain.rejected"),
		sib:         make(map[uint32]int),
		down:        make([]bool, p.Shards()),
		stitchCache: make(map[pairKey][][]int),
		digests:     make([]*digest, p.Shards()),
		reportCount: make([]uint64, p.Shards()),
		epochTimes:  make([]time.Duration, p.Shards()),
	}
	for s := 0; s < p.Shards(); s++ {
		s := s
		bcfg := cfg.Brain
		bcfg.N = p.N
		bcfg.LastResort = p.Gateways(s)
		bcfg.Owns = func(id int) bool { return p.ShardOf(id) == s }
		f.shards = append(f.shards, brain.New(bcfg))
	}
	if cfg.Replicas > 1 && cfg.Brain.Clock != nil {
		for s := 0; s < p.Shards(); s++ {
			g := newShardGroup(f.shards[s], cfg.Replicas, cfg.Brain.Clock)
			g.rb.SetExtraOpHandler(f.applyStitchOp)
			f.groups = append(f.groups, g)
		}
	}
	f.tel.shards.Set(float64(p.Shards()))
	return f
}

// Shards returns the shard count.
func (f *Federation) Shards() int { return len(f.shards) }

// Shard exposes one shard's Brain (tests and the UDP server use it).
func (f *Federation) Shard(s int) *brain.Brain { return f.shards[s] }

// ShardOf returns the shard owning a node.
func (f *Federation) ShardOf(node int) int { return f.part.ShardOf(node) }

// Partition returns the node→shard assignment.
func (f *Federation) Partition() *Partition { return f.part }

// SetShardDown marks a shard (un)reachable from the front-end — the
// chaos plane's model of a regional control-plane partition. Lookups
// needing a down shard degrade through the fallback ladder; reports to
// it are dropped (the region's nodes cannot reach it either).
func (f *Federation) SetShardDown(s int, down bool) {
	f.mu.Lock()
	f.down[s] = down
	n := 0
	for _, d := range f.down {
		if d {
			n++
		}
	}
	f.mu.Unlock()
	f.tel.shardsDown.Set(float64(n))
}

// ShardDown reports whether a shard is currently marked unreachable.
func (f *Federation) ShardDown(s int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down[s]
}

// ReportFanIn returns how many discovery reports each shard has
// ingested — the per-shard fan-in the federation exists to bound.
func (f *Federation) ReportFanIn() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint64(nil), f.reportCount...)
}

// EpochTimes returns each shard's last AdvanceEpoch duration.
func (f *Federation) EpochTimes() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.epochTimes...)
}

// admit reports whether every id names a fleet node; otherwise the call
// is counted in brain.rejected and dropped.
func (f *Federation) admit(ids ...int) bool {
	for _, id := range ids {
		if id < 0 || id >= f.part.N {
			f.rejected.Inc()
			return false
		}
	}
	return true
}

// sink returns the shard that should ingest a report from node ids[0]
// (naming ids), or -1 when an id is out of range or that shard is
// unreachable (report dropped, like the lost UDP datagram it would be).
func (f *Federation) sink(ids ...int) int {
	if !f.admit(ids...) {
		return -1
	}
	s := f.part.ShardOf(ids[0])
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[s] {
		return -1
	}
	f.reportCount[s]++
	return s
}

// ReportLink ingests a link measurement from its probing node's shard.
func (f *Federation) ReportLink(from, to int, rtt time.Duration, loss, util float64) {
	if s := f.sink(from, to); s >= 0 {
		f.tel.reports.Inc()
		f.shards[s].ReportLink(from, to, rtt, loss, util)
	}
}

// ReportLinkDown ingests a link-failure report.
func (f *Federation) ReportLinkDown(from, to int) {
	if s := f.sink(from, to); s >= 0 {
		f.tel.reports.Inc()
		f.shards[s].ReportLinkDown(from, to)
	}
}

// ReportNodeDown ingests a node-failure report.
func (f *Federation) ReportNodeDown(id int) {
	if s := f.sink(id); s >= 0 {
		f.tel.reports.Inc()
		f.shards[s].ReportNodeDown(id)
	}
}

// ReportNodeLoad ingests a node utilization report.
func (f *Federation) ReportNodeLoad(id int, util float64) {
	if s := f.sink(id); s >= 0 {
		f.tel.reports.Inc()
		f.shards[s].ReportNodeLoad(id, util)
	}
}

// Draining reports whether any shard has the node marked draining
// (SetDraining broadcasts, so the shards agree; "any" keeps the answer
// right even mid-broadcast).
func (f *Federation) Draining(id int) bool {
	for _, sh := range f.shards {
		if sh.Draining(id) {
			return true
		}
	}
	return false
}

// OverloadAlarm forwards a node overload alarm to its owner shard.
func (f *Federation) OverloadAlarm(id int, util float64) {
	if s := f.sink(id); s >= 0 {
		f.tel.reports.Inc()
		f.shards[s].OverloadAlarm(id, util)
	}
}

// LinkOverloadAlarm forwards a link overload alarm to the prober's shard.
func (f *Federation) LinkOverloadAlarm(from, to int, util float64) {
	if s := f.sink(from, to); s >= 0 {
		f.tel.reports.Inc()
		f.shards[s].LinkOverloadAlarm(from, to, util)
	}
}

// ReportNodeTelemetry forwards a node's telemetry attachment.
func (f *Federation) ReportNodeTelemetry(id int, snap telemetry.Snapshot, streams []uint32) {
	if s := f.sink(id); s >= 0 {
		f.tel.reports.Inc()
		f.shards[s].ReportNodeTelemetry(id, snap, streams)
	}
}

// RegisterStream records the stream in the federation SIB and the
// producer's shard (through its Paxos group when replicated).
func (f *Federation) RegisterStream(sid uint32, producer int) {
	if !f.admit(producer) {
		return
	}
	f.mu.Lock()
	f.sib[sid] = producer
	f.mu.Unlock()
	s := f.part.ShardOf(producer)
	if f.groups != nil {
		f.groups[s].rb.RegisterStream(sid, producer)
		return
	}
	f.shards[s].RegisterStream(sid, producer)
}

// UnregisterStream removes the stream.
func (f *Federation) UnregisterStream(sid uint32) {
	f.mu.Lock()
	producer, ok := f.sib[sid]
	delete(f.sib, sid)
	f.mu.Unlock()
	if !ok {
		return
	}
	s := f.part.ShardOf(producer)
	if f.groups != nil {
		f.groups[s].rb.UnregisterStream(sid)
		return
	}
	f.shards[s].UnregisterStream(sid)
}

// Producer returns the producer node for a stream, if registered.
func (f *Federation) Producer(sid uint32) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.sib[sid]
	return p, ok
}

// Lookup answers a path request: same-shard requests are served by one
// shard's Path Decision, cross-shard requests by gateway stitching (or
// the fallback ladder when a shard is partitioned away).
func (f *Federation) Lookup(sid uint32, consumer int) ([][]int, error) {
	if !f.admit(consumer) {
		return nil, brain.ErrUnknownNode
	}
	f.mu.Lock()
	producer, ok := f.sib[sid]
	f.mu.Unlock()
	if !ok {
		return nil, brain.ErrUnknownStream
	}
	return f.lookupPath(producer, consumer)
}

// LookupByProducer mirrors Brain.LookupByProducer (errors collapse to
// no-paths, sending the node to its local path cache).
func (f *Federation) LookupByProducer(producer, consumer int) [][]int {
	if !f.admit(producer, consumer) {
		return nil
	}
	paths, _ := f.lookupPath(producer, consumer)
	return paths
}

func (f *Federation) lookupPath(producer, consumer int) ([][]int, error) {
	ss, ds := f.part.ShardOf(producer), f.part.ShardOf(consumer)
	f.mu.Lock()
	srcDown, dstDown := f.down[ss], f.down[ds]
	f.mu.Unlock()
	if ss == ds {
		if srcDown {
			f.tel.fallbackFailed.Inc()
			return nil, ErrShardUnreachable
		}
		f.tel.lookupsLocal.Inc()
		return f.shards[ss].LookupByProducer(producer, consumer), nil
	}
	f.tel.lookupsCross.Inc()
	if !srcDown && !dstDown {
		paths := f.stitch(producer, consumer, ss, ds)
		if len(paths) > 0 {
			k := pairKey{producer, consumer}
			f.mu.Lock()
			changed := !samePaths(f.stitchCache[k], paths)
			f.stitchCache[k] = paths
			f.mu.Unlock()
			if changed && f.groups != nil {
				// Persist the decided stitch into the destination shard's
				// log (outside f.mu: the commit path re-enters the lock).
				f.groups[ds].rb.ProposeOp(encodeStitchOp(producer, consumer, paths))
			}
		}
		return paths, nil
	}

	// Fallback ladder (§4.3's last-resort philosophy applied to control-
	// plane partitions). Rung 1: serve the cached stitch — paths decided
	// while both shards were reachable stay valid unless the data plane
	// disagrees, and nodes re-resolve after heal.
	f.mu.Lock()
	cached := f.stitchCache[pairKey{producer, consumer}]
	f.mu.Unlock()
	if len(cached) > 0 {
		f.tel.stitchCacheHits.Inc()
		f.tel.fallbackCached.Inc()
		return append([][]int(nil), cached...), nil
	}
	// Rung 2: a degraded shard-local splice — the reachable side picks
	// the best gateway segment it can compute and bridges the missing
	// side with a direct hop, mirroring the optimism of last-resort
	// relays (every node maintains links to the reserved IXP set).
	if p := f.degradedStitch(producer, consumer, ss, ds, srcDown, dstDown); p != nil {
		f.tel.fallbackLocal.Inc()
		return [][]int{p}, nil
	}
	// Rung 3: nothing to serve; the node falls back to its own cache.
	f.tel.fallbackFailed.Inc()
	return nil, ErrShardUnreachable
}

// gatesOf returns a shard's exported gateway set: its first MaxStitch
// gateways (best-peered first). Both the stitcher's candidate exits and
// the digest rows are bounded by it, so stitch state stays O(1) in
// region size.
func (f *Federation) gatesOf(s int) []int {
	g := f.part.Gateways(s)
	if len(g) > f.cfg.MaxStitch {
		g = g[:f.cfg.MaxStitch]
	}
	return g
}

// digestFor returns shard t's current inter-region digest, rebuilding
// it when the shard's view version moved: one batched segment query per
// exported gateway, against every foreign gateway. While t is marked
// down the last exported digest keeps serving (summaries are front-end
// soft state, like the stitch cache), possibly nil if t never exported.
func (f *Federation) digestFor(t int) *digest {
	f.mu.Lock()
	d, down := f.digests[t], f.down[t]
	f.mu.Unlock()
	if down {
		return d
	}
	v := f.shards[t].ViewVersion()
	if d != nil && d.version == v {
		return d
	}
	own := f.gatesOf(t)
	var foreign []int
	for u := 0; u < f.part.Shards(); u++ {
		if u != t {
			foreign = append(foreign, f.gatesOf(u)...)
		}
	}
	nd := &digest{version: v}
	for _, e := range own {
		segs := f.shards[t].LookupSegments(e, foreign)
		f.tel.segmentQueries.Inc()
		for i, s := range segs {
			if len(s.Path) < 2 || math.IsInf(s.Cost, 1) {
				continue
			}
			nd.entries = append(nd.entries, digestEntry{from: e, to: foreign[i], cost: s.Cost, path: s.Path})
		}
	}
	f.tel.digestBuilds.Inc()
	f.mu.Lock()
	f.digests[t] = nd
	f.mu.Unlock()
	return nd
}

// RefreshDigests re-exports every reachable shard's inter-region
// digest (a no-op per shard whose view has not moved). AdvanceEpoch
// calls it so steady-state lookups never pay the rebuild.
func (f *Federation) RefreshDigests() {
	for t := 0; t < f.part.Shards(); t++ {
		f.digestFor(t)
	}
}

// metaEdge is one edge of the stitcher's gateway meta-graph: a
// shard-local segment (node path + Eq. 2 cost) between two meta
// vertices. transit marks edges imported from another shard's digest.
type metaEdge struct {
	to      int
	cost    float64
	path    []int
	transit bool
}

// stitch builds cross-shard paths over the gateway meta-graph. The
// vertices are the producer plus every shard's exported gateways; the
// edges are (1) the source shard's batched producer→gateway segments
// and (2) every other shard's digest rows. A deterministic Dijkstra
// over this graph finds the cheapest route to each of the destination
// shard's gateways — including third-region detours the old two-segment
// stitch could not see, at no per-lookup queries against transit
// shards. Each exit gateway g then contributes one candidate (meta
// route + the destination shard's g→consumer segment); candidates are
// ranked by summed cost and up to K loop-free ones within the hop
// bound are kept.
func (f *Federation) stitch(producer, consumer, ss, ds int) [][]int {
	var gatesAll []int
	for t := 0; t < f.part.Shards(); t++ {
		gatesAll = append(gatesAll, f.gatesOf(t)...)
	}
	adj := make(map[int][]metaEdge, len(gatesAll)+1)
	segs := f.shards[ss].LookupSegments(producer, gatesAll)
	f.tel.segmentQueries.Inc()
	for i, s := range segs {
		if gatesAll[i] == producer || len(s.Path) == 0 {
			continue
		}
		adj[producer] = append(adj[producer], metaEdge{to: gatesAll[i], cost: s.Cost, path: s.Path})
	}
	for t := 0; t < f.part.Shards(); t++ {
		if t == ss {
			continue // producer→gateway segments already cover ss's view
		}
		d := f.digestFor(t)
		if d == nil {
			continue
		}
		for i := range d.entries {
			e := &d.entries[i]
			adj[e.from] = append(adj[e.from], metaEdge{to: e.to, cost: e.cost, path: e.path, transit: true})
		}
	}

	// Deterministic Dijkstra over the meta-graph (|V| is a few dozen at
	// most, so linear-scan extraction beats a heap and ties break on the
	// fixed vertex order).
	order := append([]int{producer}, gatesAll...)
	dist := map[int]float64{producer: 0}
	type pred struct {
		prev int
		edge *metaEdge
	}
	from := make(map[int]pred, len(gatesAll))
	done := make(map[int]bool, len(gatesAll)+1)
	for {
		u, best := -1, math.Inf(1)
		for _, v := range order {
			if d, ok := dist[v]; ok && !done[v] && d < best {
				u, best = v, d
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for i := range adj[u] {
			e := &adj[u][i]
			nd := best + e.cost
			if d, ok := dist[e.to]; !ok || nd < d {
				dist[e.to] = nd
				from[e.to] = pred{prev: u, edge: e}
			}
		}
	}

	// Exit candidates are the destination region's gateways. Each exit
	// leg g→consumer is answered by g's owning shard — for a split
	// region that may be a sibling sub-shard of ds, the only shard that
	// sees g's outgoing links.
	var exits []int
	var exitSegs []brain.Segment
	for _, u := range f.part.PeerShards(ds) {
		if f.ShardDown(u) {
			continue
		}
		gs := f.gatesOf(u)
		segs := f.shards[u].LookupSegmentsInto(gs, consumer)
		f.tel.segmentQueries.Inc()
		exits = append(exits, gs...)
		exitSegs = append(exitSegs, segs...)
	}
	type cand struct {
		path []int
		cost float64
		gate int
	}
	var cands []cand
	for i, g := range exits {
		f.tel.stitchCandidates.Inc()
		dg, ok := dist[g]
		if !ok {
			continue
		}
		es := exitSegs[i]
		if len(es.Path) == 0 {
			continue
		}
		// Splice the meta route's segments producer→…→g, then the exit
		// segment (es.Path[0] == g; a zero-hop exit appends nothing).
		full := []int{producer}
		transit := false
		var walk func(v int) bool
		walk = func(v int) bool {
			p, ok := from[v]
			if !ok {
				return v == producer
			}
			if !walk(p.prev) {
				return false
			}
			full = append(full, p.edge.path[1:]...)
			transit = transit || p.edge.transit
			return true
		}
		if !walk(g) {
			continue
		}
		full = append(full, es.Path[1:]...)
		if hasRepeats(full) {
			continue
		}
		if transit {
			f.tel.stitchTransit.Inc()
		}
		cands = append(cands, cand{path: full, cost: dg + es.Cost, gate: g})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].cost != cands[b].cost {
			return cands[a].cost < cands[b].cost
		}
		return cands[a].gate < cands[b].gate
	})
	k := f.cfg.Brain.K
	if k <= 0 {
		k = brain.DefaultK
	}
	maxHops := f.cfg.Brain.MaxHops
	if maxHops <= 0 {
		maxHops = brain.DefaultMaxHops
	}
	var out [][]int
	for _, c := range cands {
		if len(c.path)-1 > maxHops || duplicatePath(out, c.path) {
			continue
		}
		out = append(out, c.path)
		if len(out) == k {
			break
		}
	}
	if len(out) == 0 && len(cands) > 0 {
		// Every candidate exceeds the hop bound: keep the cheapest
		// anyway, like the Brain's last-resort relays — a long path
		// beats refusing the viewer.
		out = [][]int{cands[0].path}
	}
	return out
}

// degradedStitch serves a cross-shard lookup with one side partitioned
// away: the reachable shard contributes its best gateway segment; the
// unreachable side is bridged with a single optimistic hop.
func (f *Federation) degradedStitch(producer, consumer, ss, ds int, srcDown, dstDown bool) []int {
	gates := f.gatesOf(ds)
	switch {
	case srcDown && !dstDown:
		// Only the consumer side can route: producer → g optimistic,
		// g → consumer decided by the destination shard.
		bestCost := 0.0
		var best []int
		for _, g := range gates {
			if g == producer || g == consumer {
				p := []int{producer, consumer}
				if g == producer {
					return p
				}
				return p // g == consumer: direct producer→consumer hop
			}
			pathsB := f.shards[ds].LookupByProducer(g, consumer)
			if len(pathsB) == 0 {
				continue
			}
			cost := f.shards[ds].PathCost(pathsB[0])
			if best == nil || cost < bestCost {
				best = append([]int{producer}, pathsB[0]...)
				bestCost = cost
			}
		}
		if best != nil && hasRepeats(best) {
			return nil
		}
		return best
	case dstDown && !srcDown:
		// Only the producer side can route: producer → g decided by
		// the source shard, g → consumer optimistic.
		bestCost := 0.0
		var best []int
		for _, g := range gates {
			if g == consumer {
				continue // would need the down shard's view anyway
			}
			segA := [][]int{{producer}}
			if g != producer {
				segA = f.shards[ss].LookupByProducer(producer, g)
				if len(segA) == 0 {
					continue
				}
			}
			cost := f.shards[ss].PathCost(segA[0])
			if best == nil || cost < bestCost {
				best = append(append([]int(nil), segA[0]...), consumer)
				bestCost = cost
			}
		}
		if best != nil && hasRepeats(best) {
			return nil
		}
		return best
	}
	return nil
}

func hasRepeats(path []int) bool {
	seen := make(map[int]bool, len(path))
	for _, n := range path {
		if seen[n] {
			return true
		}
		seen[n] = true
	}
	return false
}

func duplicatePath(have [][]int, p []int) bool {
	for _, h := range have {
		if len(h) != len(p) {
			continue
		}
		same := true
		for i := range h {
			if h[i] != p[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// applyStitchOp installs a committed stitch-cache log entry. Idempotent
// (last write wins), so replays and duplicate commits are harmless.
func (f *Federation) applyStitchOp(value []byte) {
	k, paths, ok := decodeStitchOp(value)
	if !ok {
		return
	}
	f.mu.Lock()
	f.stitchCache[k] = paths
	f.mu.Unlock()
}

// DropStitchCache clears the in-memory stitch cache — the model of a
// front-end restart losing its soft state.
func (f *Federation) DropStitchCache() {
	f.mu.Lock()
	f.stitchCache = make(map[pairKey][][]int)
	f.mu.Unlock()
}

// RecoverStitchCache replays the per-shard Paxos logs through the
// stitch-op handler, rebuilding the cache a restarted front-end needs
// for the cached-stitch fallback rung. It returns how many entries the
// replay installed. A no-op without replication.
func (f *Federation) RecoverStitchCache() int {
	if f.groups == nil {
		return 0
	}
	n := 0
	for _, g := range f.groups {
		for _, v := range g.rb.Replica().AppliedValues() {
			if _, _, ok := decodeStitchOp(v); ok {
				f.applyStitchOp(v)
				n++
			}
		}
	}
	return n
}

// SetDraining marks a relay as (not) draining in every shard: any shard
// may route a stitched segment through the node, so the exclusion must
// be federation-wide.
func (f *Federation) SetDraining(id int, v bool) {
	if !f.admit(id) {
		return
	}
	for _, sh := range f.shards {
		sh.SetDraining(id, v)
	}
}

// AdvanceEpoch advances every reachable shard's routing epoch in
// parallel and records per-shard durations — the number BENCH_7 compares
// against the monolith's single global epoch.
func (f *Federation) AdvanceEpoch() {
	idx := make([]int, len(f.shards))
	for i := range idx {
		idx[i] = i
	}
	durs, _ := runner.Map(f.cfg.Brain.Recompute, idx, func(s int) time.Duration {
		if f.ShardDown(s) {
			return 0
		}
		start := time.Now()
		f.shards[s].AdvanceEpoch()
		return time.Since(start)
	})
	f.mu.Lock()
	copy(f.epochTimes, durs)
	f.mu.Unlock()
	f.tel.epochs.Inc()
	for _, d := range durs {
		if d > 0 {
			f.tel.epochNs.Observe(d.Nanoseconds())
		}
	}
	// Each shard exports its refreshed inter-region digest with the
	// epoch, so lookups between epochs stitch from warm summaries.
	f.RefreshDigests()
}

// InvalidateAll drops every shard's PIB (epoch boundary without new
// reports; mirrors Brain.InvalidateAll).
func (f *Federation) InvalidateAll() {
	for _, sh := range f.shards {
		sh.InvalidateAll()
	}
}

// PrefetchPaths warms paths from a stream's producer to every possible
// consumer, fanning the per-consumer-shard work across the Recompute
// pool. Cross-shard destinations go through the normal stitch, so the
// stitch cache is warm before a partition hits.
func (f *Federation) PrefetchPaths(sid uint32) (map[int][][]int, error) {
	f.mu.Lock()
	producer, ok := f.sib[sid]
	f.mu.Unlock()
	if !ok {
		return nil, brain.ErrUnknownStream
	}
	groups := make([][]int, f.part.Shards())
	for d := 0; d < f.part.N; d++ {
		if d == producer {
			continue
		}
		s := f.part.ShardOf(d)
		groups[s] = append(groups[s], d)
	}
	idx := make([]int, len(groups))
	for i := range idx {
		idx[i] = i
	}
	type entry struct {
		d     int
		paths [][]int
	}
	res, _ := runner.Map(f.cfg.Brain.Recompute, idx, func(s int) []entry {
		out := make([]entry, 0, len(groups[s]))
		for _, d := range groups[s] {
			paths, _ := f.lookupPath(producer, d)
			if len(paths) > 0 {
				out = append(out, entry{d: d, paths: paths})
			}
		}
		return out
	})
	merged := make(map[int][][]int, f.part.N)
	for _, shardEntries := range res {
		for _, e := range shardEntries {
			merged[e.d] = e.paths
		}
	}
	return merged, nil
}

// Metrics merges shard metrics with the federation's own lookup counts
// (shard Lookups are not summed: the front-end serves lookups, shards
// only see segment queries).
func (f *Federation) Metrics() brain.Metrics {
	var m brain.Metrics
	for _, sh := range f.shards {
		sm := sh.Metrics()
		m.PIBHits += sm.PIBHits
		m.PIBMisses += sm.PIBMisses
		m.LastResortUsed += sm.LastResortUsed
		m.OverloadAlarms += sm.OverloadAlarms
	}
	m.Lookups = f.tel.lookupsLocal.Load() + f.tel.lookupsCross.Load()
	f.mu.Lock()
	m.StreamsActive = len(f.sib)
	f.mu.Unlock()
	return m
}

// GlobalView merges the shards' fleet-health summaries. Each link is
// owned by exactly one shard (its probing node's), and node state is
// scoped by ownership, so sums are exact, not estimates.
func (f *Federation) GlobalView() brain.GlobalView {
	merged := brain.GlobalView{
		Nodes:     f.part.N,
		Producers: make(map[uint32]int),
	}
	f.mu.Lock()
	merged.Streams = len(f.sib)
	for sid, p := range f.sib {
		merged.Producers[sid] = p
	}
	f.mu.Unlock()
	utilSum, lossSum, up := 0.0, 0.0, 0
	for s, sh := range f.shards {
		v := sh.GlobalView()
		// A shard reports NodesDown over the whole fleet, but only ever
		// marks nodes it ingests reports about; count only owned nodes
		// so a down gateway seen by two shards is not double-counted.
		down := 0
		for _, id := range f.part.Nodes(s) {
			if sh.View().NodeDown(id) {
				down++
			}
		}
		merged.NodesDown += down
		merged.NodesStale += v.NodesStale
		merged.Links += v.Links
		merged.LinksDown += v.LinksDown
		shardUp := v.Links - v.LinksDown
		utilSum += v.MeanLinkUtil * float64(shardUp)
		lossSum += v.MeanLinkLoss * float64(shardUp)
		up += shardUp
		if v.MaxLinkUtil > merged.MaxLinkUtil {
			merged.MaxLinkUtil = v.MaxLinkUtil
		}
		if v.MaxLinkLoss > merged.MaxLinkLoss {
			merged.MaxLinkLoss = v.MaxLinkLoss
		}
		if len(v.NodeTelemetry) > 0 {
			if merged.NodeTelemetry == nil {
				merged.NodeTelemetry = make(map[int]telemetry.Snapshot)
				merged.FanOut = make(map[uint32]int)
			}
			for id, snap := range v.NodeTelemetry {
				merged.NodeTelemetry[id] = snap
				merged.Fleet.Merge(snap)
			}
			for sid, n := range v.FanOut {
				merged.FanOut[sid] += n
			}
		}
	}
	if up > 0 {
		merged.MeanLinkUtil = utilSum / float64(up)
		merged.MeanLinkLoss = lossSum / float64(up)
	}
	return merged
}

// Close stops every shard (and its Paxos group, when replicated).
func (f *Federation) Close() {
	if f.groups != nil {
		for _, g := range f.groups {
			g.close()
		}
		return // group.close closes the shard Brain via ReplicatedBrain
	}
	for _, sh := range f.shards {
		sh.Close()
	}
}

// shardGroup is a shard's Paxos deployment: the shard Brain as replica
// 0 plus standby log replicas (the region's other control DCs). SIB ops
// commit through the group before they apply, so a shard fails over
// without losing stream registrations.
type shardGroup struct {
	rb       *brain.ReplicatedBrain
	standbys []*replication.Replica
	tr       *groupTransport
}

// groupTransport delivers Paxos messages within one shard group with a
// fixed 1 ms clock delay (in-region control traffic).
type groupTransport struct {
	clock sim.Clock
	group *shardGroup
}

func (t *groupTransport) Send(from, to int, m replication.Msg) {
	t.clock.AfterFunc(time.Millisecond, func() {
		g := t.group
		if to == 0 {
			g.rb.OnMessage(from, m)
			return
		}
		if to-1 < len(g.standbys) {
			g.standbys[to-1].OnMessage(from, m)
		}
	})
}

func newShardGroup(local *brain.Brain, replicas int, clock sim.Clock) *shardGroup {
	peers := make([]int, replicas)
	for i := range peers {
		peers[i] = i
	}
	g := &shardGroup{}
	tr := &groupTransport{clock: clock, group: g}
	g.tr = tr
	g.rb = brain.NewReplicated(local, 0, peers, tr, clock)
	for i := 1; i < replicas; i++ {
		g.standbys = append(g.standbys, replication.NewReplica(i, peers, tr, clock))
	}
	return g
}

func (g *shardGroup) close() {
	for _, r := range g.standbys {
		r.Close()
	}
	g.rb.Close()
}
