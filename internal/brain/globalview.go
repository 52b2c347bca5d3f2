package brain

import (
	"fmt"
	"sort"
	"strings"

	"livenet/internal/stats"
	"livenet/internal/telemetry"
)

// brainInstruments are the Brain's registered telemetry handles (see
// OBSERVABILITY.md for the catalogue). With a nil registry they are
// unregistered instruments that still count, at identical cost.
type brainInstruments struct {
	lookups               *telemetry.Counter
	pibHits               *telemetry.Counter
	pibMisses             *telemetry.Counter
	pibInvalidated        *telemetry.Counter
	invalidateIncremental *telemetry.Counter
	invalidateFull        *telemetry.Counter
	lastResortUsed        *telemetry.Counter
	overloadAlarms        *telemetry.Counter
	rejected              *telemetry.Counter
	streamsActive         *telemetry.Gauge
}

func newBrainInstruments(r *telemetry.Registry) brainInstruments {
	return brainInstruments{
		lookups:               r.Counter("brain.lookups"),
		pibHits:               r.Counter("brain.pib_hits"),
		pibMisses:             r.Counter("brain.pib_misses"),
		pibInvalidated:        r.Counter("brain.pib_invalidated"),
		invalidateIncremental: r.Counter("brain.pib_invalidate_incremental"),
		invalidateFull:        r.Counter("brain.pib_invalidate_full"),
		lastResortUsed:        r.Counter("brain.last_resort_used"),
		overloadAlarms:        r.Counter("brain.overload_alarms"),
		rejected:              r.Counter("brain.rejected"),
		streamsActive:         r.Gauge("brain.streams_active"),
	}
}

// ReportNodeTelemetry ingests a node's periodic telemetry attachment: a
// snapshot of its metrics registry and the IDs of the streams it currently
// carries. It extends the node's existing Global Discovery report (§4.2) —
// it does not advance the routing epoch or touch the PIB, so attaching
// telemetry never changes path decisions.
func (b *Brain) ReportNodeTelemetry(id int, snap telemetry.Snapshot, streams []uint32) {
	if !b.admit(id) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.nodeTel == nil {
		b.nodeTel = make(map[int]telemetry.Snapshot)
		b.nodeStreams = make(map[int][]uint32)
	}
	b.nodeTel[id] = snap
	b.nodeStreams[id] = append(b.nodeStreams[id][:0], streams...)
}

// GlobalView is the Brain's aggregated fleet-health summary, built from
// the Global Discovery view plus ingested node telemetry. eval and
// `livenet-bench -telemetry` render it as text tables.
type GlobalView struct {
	Nodes      int // overlay size
	NodesDown  int // marked down (failure reports or staleness)
	NodesStale int // no report within StaleAfter (subset of down once swept)
	Links      int // links with at least one measurement
	LinksDown  int

	MeanLinkUtil float64
	MaxLinkUtil  float64
	MeanLinkLoss float64
	MaxLinkLoss  float64

	Streams int // SIB entries (live streams)
	// FanOut maps each stream to its fan-out depth: how many overlay nodes
	// currently carry it (producer + relays + consumers), per the latest
	// node reports.
	FanOut map[uint32]int
	// Producers maps each SIB stream to its producer node.
	Producers map[uint32]int

	// NodeTelemetry holds the latest ingested per-node snapshots, and
	// Fleet their merged sum (counters/histograms added, gauges maxed).
	NodeTelemetry map[int]telemetry.Snapshot
	Fleet         telemetry.Snapshot
}

// GlobalView aggregates the Brain's current fleet health.
func (b *Brain) GlobalView() GlobalView {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := GlobalView{
		Nodes:     b.cfg.N,
		Streams:   len(b.sib),
		Producers: make(map[uint32]int, len(b.sib)),
	}
	for sid, p := range b.sib {
		v.Producers[sid] = p
	}
	for i := 0; i < b.cfg.N; i++ {
		if b.view.NodeDown(i) {
			v.NodesDown++
		}
	}
	if b.nodeSeen != nil {
		now := b.cfg.Clock.Now()
		for id, seen := range b.nodeSeen {
			if b.owns(id) && now-seen > b.cfg.StaleAfter {
				v.NodesStale++
			}
		}
	}
	for i := 0; i < b.cfg.N; i++ {
		for j := 0; j < b.cfg.N; j++ {
			l := b.view.Link(i, j)
			if l == nil {
				continue
			}
			v.Links++
			if l.Down {
				v.LinksDown++
				continue
			}
			v.MeanLinkUtil += l.Util
			v.MeanLinkLoss += l.Loss
			if l.Util > v.MaxLinkUtil {
				v.MaxLinkUtil = l.Util
			}
			if l.Loss > v.MaxLinkLoss {
				v.MaxLinkLoss = l.Loss
			}
		}
	}
	if up := v.Links - v.LinksDown; up > 0 {
		v.MeanLinkUtil /= float64(up)
		v.MeanLinkLoss /= float64(up)
	}
	if b.nodeTel != nil {
		v.FanOut = make(map[uint32]int)
		v.NodeTelemetry = make(map[int]telemetry.Snapshot, len(b.nodeTel))
		ids := make([]int, 0, len(b.nodeTel))
		for id := range b.nodeTel {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			v.NodeTelemetry[id] = b.nodeTel[id]
			v.Fleet.Merge(b.nodeTel[id])
			for _, sid := range b.nodeStreams[id] {
				v.FanOut[sid]++
			}
		}
	}
	return v
}

// String renders the view as deterministic (sorted) text tables.
func (v GlobalView) String() string {
	var b strings.Builder
	t := &stats.Table{Header: []string{
		"nodes", "down", "stale", "links", "links down",
		"mean util", "max util", "mean loss", "max loss", "streams",
	}}
	t.AddRow(
		fmt.Sprintf("%d", v.Nodes), fmt.Sprintf("%d", v.NodesDown),
		fmt.Sprintf("%d", v.NodesStale), fmt.Sprintf("%d", v.Links),
		fmt.Sprintf("%d", v.LinksDown),
		fmt.Sprintf("%.3f", v.MeanLinkUtil), fmt.Sprintf("%.3f", v.MaxLinkUtil),
		fmt.Sprintf("%.4f", v.MeanLinkLoss), fmt.Sprintf("%.4f", v.MaxLinkLoss),
		fmt.Sprintf("%d", v.Streams),
	)
	b.WriteString("Brain GlobalView — fleet health\n")
	b.WriteString(t.String())

	if len(v.FanOut) > 0 {
		sids := make([]uint32, 0, len(v.FanOut))
		for sid := range v.FanOut {
			sids = append(sids, sid)
		}
		// Deepest fan-out first; ties by stream ID for determinism.
		sort.Slice(sids, func(a, c int) bool {
			if v.FanOut[sids[a]] != v.FanOut[sids[c]] {
				return v.FanOut[sids[a]] > v.FanOut[sids[c]]
			}
			return sids[a] < sids[c]
		})
		const topN = 10
		shown := sids
		if len(shown) > topN {
			shown = shown[:topN]
		}
		ft := &stats.Table{Header: []string{"stream", "producer", "fan-out (nodes)"}}
		for _, sid := range shown {
			prod := "?"
			if p, ok := v.Producers[sid]; ok {
				prod = fmt.Sprintf("%d", p)
			}
			ft.AddRow(fmt.Sprintf("%d", sid), prod, fmt.Sprintf("%d", v.FanOut[sid]))
		}
		fmt.Fprintf(&b, "\nper-stream fan-out depth (top %d of %d)\n", len(shown), len(sids))
		b.WriteString(ft.String())
	}

	if !v.Fleet.Empty() {
		b.WriteString("\nfleet node telemetry (merged across reports)\n")
		b.WriteString(v.Fleet.String())
	}
	return b.String()
}
