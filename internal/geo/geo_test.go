package geo

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"livenet/internal/sim"
)

func testWorld(t *testing.T, n int) *World {
	t.Helper()
	rng := sim.NewSource(1).Stream("geo")
	cfg := DefaultConfig()
	cfg.NumSites = n
	return Build(cfg, rng)
}

func TestBuildSiteCount(t *testing.T) {
	for _, n := range []int{1, 12, 64, 200} {
		w := testWorld(t, n)
		if len(w.Sites) != n {
			t.Fatalf("n=%d: got %d sites", n, len(w.Sites))
		}
	}
}

func TestHomeMarketDominates(t *testing.T) {
	w := testWorld(t, 100)
	home := len(w.SitesInCountry("CN"))
	if home < 40 {
		t.Fatalf("home market has %d/100 sites, want >= 40", home)
	}
}

func TestSiteIDsSequential(t *testing.T) {
	w := testWorld(t, 50)
	for i, s := range w.Sites {
		if s.ID != i {
			t.Fatalf("site %d has ID %d", i, s.ID)
		}
	}
}

func TestRTTSymmetricPositive(t *testing.T) {
	w := testWorld(t, 40)
	for i := 0; i < 40; i += 7 {
		for j := 0; j < 40; j += 5 {
			a, b := w.RTT(i, j), w.RTT(j, i)
			if a != b {
				t.Fatalf("RTT not symmetric: %v vs %v", a, b)
			}
			if a <= 0 {
				t.Fatalf("RTT(%d,%d) = %v", i, j, a)
			}
		}
	}
}

func TestRTTSelfSmall(t *testing.T) {
	w := testWorld(t, 10)
	if w.RTT(3, 3) >= time.Millisecond {
		t.Fatalf("self RTT = %v", w.RTT(3, 3))
	}
}

func TestInterNationalRTTLarger(t *testing.T) {
	w := testWorld(t, 100)
	cn := w.SitesInCountry("CN")
	us := w.SitesInCountry("US")
	if len(cn) < 2 || len(us) < 1 {
		t.Skip("world too small for this check")
	}
	intra := w.RTT(cn[0], cn[1])
	inter := w.RTT(cn[0], us[0])
	if inter <= intra {
		t.Fatalf("CN-US RTT %v should exceed CN-CN RTT %v", inter, intra)
	}
	if inter < 50*time.Millisecond {
		t.Fatalf("transpacific RTT %v implausibly small", inter)
	}
}

func TestBaseLossBounds(t *testing.T) {
	w := testWorld(t, 30)
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if i == j {
				continue
			}
			l := w.BaseLoss(i, j)
			if l < 0 || l > 0.00175 {
				t.Fatalf("base loss %v out of paper's near-lossless range", l)
			}
			if l != w.BaseLoss(j, i) {
				t.Fatal("base loss not symmetric")
			}
		}
	}
}

func TestDiurnalShape(t *testing.T) {
	peak := DiurnalFactor(21)
	trough := DiurnalFactor(4.5)
	noon := DiurnalFactor(13)
	if peak <= noon || noon <= trough {
		t.Fatalf("diurnal shape wrong: peak=%v noon=%v trough=%v", peak, noon, trough)
	}
	if peak > 1 || trough <= 0 {
		t.Fatalf("diurnal out of (0,1]: peak=%v trough=%v", peak, trough)
	}
}

func TestDiurnalFactorBounded(t *testing.T) {
	if err := quick.Check(func(h uint16) bool {
		f := DiurnalFactor(float64(h%2400) / 100)
		return f > 0 && f <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalHour(t *testing.T) {
	// At UTC noon, longitude 108E is 7.2 hours ahead => 19.2 local.
	got := LocalHour(12*time.Hour, 108)
	if got < 19.1 || got > 19.3 {
		t.Fatalf("LocalHour = %v", got)
	}
	// Wraps across midnight.
	got = LocalHour(22*time.Hour, 108)
	if got < 5.1 || got > 5.3 {
		t.Fatalf("LocalHour wrap = %v", got)
	}
	// Negative longitudes wrap the other way.
	got = LocalHour(2*time.Hour, -98)
	if got < 19.4 || got > 19.6 {
		t.Fatalf("LocalHour negative lon = %v", got)
	}
}

func TestIXPGuaranteed(t *testing.T) {
	rng := sim.NewSource(2).Stream("geo")
	cfg := DefaultConfig()
	cfg.NumSites = 5
	cfg.IXPFraction = 0 // force the guarantee path
	w := Build(cfg, rng)
	if len(w.IXPSites()) < 2 {
		t.Fatalf("want >= 2 IXP sites, got %d", len(w.IXPSites()))
	}
}

func TestNearestSite(t *testing.T) {
	w := testWorld(t, 60)
	for _, s := range w.Sites {
		got := w.NearestSite(s.Lat, s.Lon)
		gs := w.Sites[got]
		// Nearest to a site's own location must be in a plausible distance
		// (could be a co-located sibling, so just bound the distance).
		if d := haversineKm(s.Lat, s.Lon, gs.Lat, gs.Lon); d > 1 {
			t.Fatalf("nearest site to site %d is %d at %v km", s.ID, got, d)
		}
	}
}

func TestViewerOriginMostlyHome(t *testing.T) {
	rng := sim.NewSource(3).Stream("viewers")
	home := 0
	const n = 5000
	for i := 0; i < n; i++ {
		_, _, c := ViewerOrigin(rng)
		if c == "CN" {
			home++
		}
	}
	frac := float64(home) / n
	if frac < 0.70 || frac > 0.95 {
		t.Fatalf("home viewer fraction = %v, want ~0.82", frac)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(DefaultConfig(), sim.NewSource(7).Stream("geo"))
	b := Build(DefaultConfig(), sim.NewSource(7).Stream("geo"))
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatal("same seed produced different worlds")
		}
	}
	if a.RTT(0, len(a.Sites)-1) != b.RTT(0, len(b.Sites)-1) {
		t.Fatal("same seed produced different RTTs")
	}
}

func TestHaversineKnown(t *testing.T) {
	// Beijing to Shanghai is roughly 1070 km.
	d := haversineKm(39.9, 116.4, 31.2, 121.5)
	if d < 950 || d > 1200 {
		t.Fatalf("Beijing-Shanghai = %v km", d)
	}
	if haversineKm(10, 20, 10, 20) != 0 {
		t.Fatal("identical points should be 0 km apart")
	}
}

func TestWrapLon(t *testing.T) {
	if got := wrapLon(190); got != -170 {
		t.Fatalf("wrapLon(190) = %v", got)
	}
	if got := wrapLon(-200); got != 160 {
		t.Fatalf("wrapLon(-200) = %v", got)
	}
}

func TestNearestPeers(t *testing.T) {
	w := testWorld(t, 40)
	const m = 8
	for id := 0; id < 40; id += 7 {
		ps := w.NearestPeers(id, m)
		if len(ps) != m {
			t.Fatalf("id=%d: got %d peers, want %d", id, len(ps), m)
		}
		seen := map[int]bool{}
		for i, p := range ps {
			if p == id {
				t.Fatalf("id=%d: NearestPeers contains self", id)
			}
			if seen[p] {
				t.Fatalf("id=%d: duplicate peer %d", id, p)
			}
			seen[p] = true
			if i > 0 && w.RTT(id, ps[i-1]) > w.RTT(id, p) {
				t.Fatalf("id=%d: peers not in ascending RTT order", id)
			}
		}
		// Every excluded site must be at least as far as the kept ones.
		worst := w.RTT(id, ps[m-1])
		for j := 0; j < 40; j++ {
			if j != id && !seen[j] && w.RTT(id, j) < worst {
				t.Fatalf("id=%d: excluded site %d closer than kept peer", id, j)
			}
		}
		again := w.NearestPeers(id, m)
		for i := range ps {
			if ps[i] != again[i] {
				t.Fatalf("id=%d: NearestPeers not deterministic", id)
			}
		}
	}
	if got := w.NearestPeers(3, 100); len(got) != 39 {
		t.Fatalf("oversized m: got %d peers, want 39", len(got))
	}
	if got := w.NearestPeers(3, 0); got != nil {
		t.Fatalf("m=0: got %v, want nil", got)
	}
}

// The reference formulas below are RTT, transitPenalty and BaseLoss as
// first written, hashing through fmt.Fprintf into hash/fnv.

func refTransitPenalty(w *World, i, j int) time.Duration {
	qi, qj := w.peering[i], w.peering[j]
	ms := 14 + 170*(1-qi)*(1-qj)
	if w.Sites[i].Country != w.Sites[j].Country {
		ms *= 1 + 1.3*(1-qi*qj)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "transit:%d-%d", min(i, j), max(i, j))
	ms += float64(h.Sum64() % 12)
	return time.Duration(ms * float64(time.Millisecond))
}

func refRTT(w *World, i, j int) time.Duration {
	if i == j {
		return 500 * time.Microsecond
	}
	si, sj := w.Sites[i], w.Sites[j]
	dist := haversineKm(si.Lat, si.Lon, sj.Lat, sj.Lon)
	oneWayMs := dist / kmPerMsOneWay * w.inflation[i*len(w.Sites)+j]
	rtt := time.Duration(2 * oneWayMs * float64(time.Millisecond))
	rtt += refTransitPenalty(w, i, j)
	if rtt < 4*time.Millisecond {
		rtt = 4 * time.Millisecond
	}
	return rtt
}

func refBaseLoss(w *World, i, j int) float64 {
	base := 0.0004
	if w.Sites[i].Country != w.Sites[j].Country {
		base = 0.0008
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d-%d", min(i, j), max(i, j))
	return base * (0.5 + float64(h.Sum64()%1000)/1000)
}

// TestPairFormulasGolden pins RTT, BaseLoss and NearestPeers of a seeded
// 600-site world to the reference formulas, for every pair: overlays
// built from them (the 600-site Brain benchmarks among them) must not
// move.
func TestPairFormulasGolden(t *testing.T) {
	const n = 600
	w := testWorld(t, n)
	rtt := make([]time.Duration, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rtt[i*n+j] = refRTT(w, i, j)
			if got := w.RTT(i, j); got != rtt[i*n+j] {
				t.Fatalf("RTT(%d,%d) = %v, want %v", i, j, got, rtt[i*n+j])
			}
			if got, want := w.BaseLoss(i, j), refBaseLoss(w, i, j); got != want {
				t.Fatalf("BaseLoss(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	for id := 0; id < n; id++ {
		want := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != id {
				want = append(want, j)
			}
		}
		sort.Slice(want, func(a, b int) bool {
			ra, rb := rtt[id*n+want[a]], rtt[id*n+want[b]]
			if ra != rb {
				return ra < rb
			}
			return want[a] < want[b]
		})
		for _, m := range []int{8, 40} {
			got := w.NearestPeers(id, m)
			if fmt.Sprint(got) != fmt.Sprint(want[:m]) {
				t.Fatalf("NearestPeers(%d, %d) = %v, want %v", id, m, got, want[:m])
			}
		}
	}
}

func TestPairFormulasAllocateNothing(t *testing.T) {
	w := testWorld(t, 64)
	if a := testing.AllocsPerRun(100, func() {
		_ = w.RTT(3, 41)
		_ = w.BaseLoss(41, 3)
	}); a != 0 {
		t.Fatalf("RTT+BaseLoss allocate %v times per call pair, want 0", a)
	}
}
