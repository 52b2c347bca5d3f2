package main

// join-churn: viewer joins against a paper-scale Streaming Brain (600
// sites, ~63k directed links, 48 streams) behind udprun.BrainServer while
// Global Discovery link reports stream in and routing epochs advance on
// a fixed schedule. Lookups are open loop at a constant rate.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"livenet/internal/brain"
	"livenet/internal/geo"
	"livenet/internal/runner"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/udprun"
	"livenet/internal/wire"
)

const (
	joinSites   = 600
	joinDegree  = 16 // nearest peers per site, plus every IXP
	joinStreams = 48
	joinGenID   = 5000
	// joinWorldSeed fixes the deployment: site placement (hence the
	// overlay) as in the repository's fleet benchmarks, the initial link
	// measurements and the streams' producers. The run seed draws the
	// load: which streams and consumers are looked up, when, and which
	// links report what.
	joinWorldSeed = 7
	// Steady load: lookups/s beside reports/s, four reads per write. The
	// Brain answers lookups one at a time and a lookup costs ~3.5 ms of
	// CPU, so at this rate it is busy about a third of the time and
	// latency follows the cost of a lookup rather than the queue behind
	// it. Each epoch's hold (~40 ms) stalls ~4 % of lookups, so p99 lies
	// well inside the stalls. (At 50 lookups/s beside 25 reports/s more
	// lookups miss and p50 read 6.4 to 9.2 ms over ten runs; beside 12.5
	// reports/s the epochs are short and p99 sat at the stalls' edge.)
	joinLookupRate = 100.0
	joinReportRate = 25.0
	// Epochs are not a multiple of the 10 ms lookup spacing, so over a
	// run they start at every phase of it; with whole seconds the phase
	// was fixed per run, and so was how long the first lookup behind an
	// epoch waited.
	joinEpoch = time.Second + time.Millisecond
	// The steady phase is cut into windows of 1000 lookups, enough that
	// each window's p99 has ten samples beyond it; p50_ms, p99_ms and
	// cpu_us_per_op are medians over the windows. The tail is set by the
	// lookups that wait behind a routing epoch, so a window holds ten.
	joinWindowLen = 10 * time.Second
	joinZipfS     = 1.0
	// A lookup unanswered this long after it was due has failed.
	joinTimeout = time.Second
	// Ramp steps raise the lookup rate at the fixed report rate; a step
	// passes while its p99 (failures as +inf) stays under the limit.
	joinP99LimitMs = 150.0
	joinStepLen    = 2 * time.Second
	joinWarmup     = time.Second
)

// joinRampRates grow by a quarter a step: one core answers about 250
// lookups/s at this report rate.
var joinRampRates = []float64{125, 160, 200, 250, 320}

type joinReq struct {
	due      int64
	sid      uint32
	consumer int
	win      *joinWindow
	answered atomic.Bool
}

type joinWindow struct {
	startNs, endNs int64
	cpu0, cpu      time.Duration

	mu   sync.Mutex
	reqs []*joinReq
	lat  []float64 // ms, answered OK and valid within the timeout
	late []float64 // generator lateness, ms
}

type joinStats struct {
	attempted, ok, failed int64
	p50, p99              float64
	okPerSec              float64
}

func (w *joinWindow) stats() joinStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := joinStats{attempted: int64(len(w.reqs)), ok: int64(len(w.lat))}
	st.failed = st.attempted - st.ok // timed out, refused or invalid
	lat := append([]float64(nil), w.lat...)
	st.p50 = pct(lat, int(st.failed), 50)
	st.p99 = pct(lat, int(st.failed), 99)
	st.okPerSec = float64(st.ok) / (float64(w.endNs-w.startNs) / 1e9)
	return st
}

func (st joinStats) pass() bool { return st.attempted > 0 && st.p99 <= joinP99LimitMs }

// poolJoinWindows merges closed windows into one for whole-phase totals.
func poolJoinWindows(ws []*joinWindow) *joinWindow {
	p := &joinWindow{startNs: ws[0].startNs, endNs: ws[len(ws)-1].endNs}
	for _, w := range ws {
		w.mu.Lock()
		p.reqs = append(p.reqs, w.reqs...)
		p.lat = append(p.lat, w.lat...)
		p.late = append(p.late, w.late...)
		w.mu.Unlock()
	}
	return p
}

// joinInputs is the generated overlay the Brain is fed: the
// paper-scale sparse shape (nearest peers plus every IXP, symmetrised)
// the repository's fleet benchmarks use, with one measurement per link
// and the streams' producers. Building it is the generator's work and is
// not part of setup.
type joinInputs struct {
	world    *geo.World
	ixps     []int
	links    [][2]int
	rtt      []time.Duration // per link, the geographic RTT
	loss     []float64
	util     []float64
	reported map[[2]int]bool
	sids     []uint32
	producer map[uint32]int
}

func newJoinInputs() *joinInputs {
	gcfg := geo.DefaultConfig()
	gcfg.NumSites = joinSites
	w := geo.Build(gcfg, sim.NewSource(joinWorldSeed).Stream("geo"))
	set := make([]map[int]bool, joinSites)
	for i := range set {
		set[i] = make(map[int]bool, joinDegree+8)
	}
	add := func(i, j int) {
		if i != j {
			set[i][j] = true
			set[j][i] = true
		}
	}
	in := &joinInputs{world: w, ixps: w.IXPSites(), reported: make(map[[2]int]bool), producer: make(map[uint32]int)}
	for i := 0; i < joinSites; i++ {
		for _, j := range w.NearestPeers(i, joinDegree) {
			add(i, j)
		}
		for _, x := range in.ixps {
			add(i, x)
		}
	}
	for i := range set {
		for j := range set[i] {
			in.links = append(in.links, [2]int{i, j})
		}
	}
	sort.Slice(in.links, func(a, b int) bool {
		if in.links[a][0] != in.links[b][0] {
			return in.links[a][0] < in.links[b][0]
		}
		return in.links[a][1] < in.links[b][1]
	})
	rng := sim.NewSource(joinWorldSeed).Stream("links")
	for _, l := range in.links {
		in.rtt = append(in.rtt, w.RTT(l[0], l[1]))
		in.loss = append(in.loss, 0.0003+rng.Float64()*0.001)
		in.util = append(in.util, rng.Float64()*0.5)
		in.reported[l] = true
	}
	perm := sim.NewSource(joinWorldSeed).Stream("producers").Perm(joinSites)
	for s := 0; s < joinStreams; s++ {
		sid := uint32(1000 + s)
		in.producer[sid] = perm[s]
		in.sids = append(in.sids, sid)
	}
	return in
}

// newJoinBrain is the system's set-up: a Brain that has ingested one
// report per link and knows every stream's producer.
func newJoinBrain(in *joinInputs, reg *telemetry.Registry) *brain.Brain {
	// The epoch's sweeps run on one core: fanned out over both vCPUs of
	// a shared host, the hold time followed whether the host granted the
	// second one (35 to 96 ms for the same seed), and the tail with it.
	br := brain.New(brain.Config{N: joinSites, LastResort: in.ixps, Telemetry: reg, Recompute: runner.Serial()})
	for i, l := range in.links {
		br.ReportLink(l[0], l[1], in.rtt[i], in.loss[i], in.util[i])
	}
	for _, sid := range in.sids {
		br.RegisterStream(sid, in.producer[sid])
	}
	return br
}

type joinSys struct {
	t0    time.Time
	in    *joinInputs
	br    *brain.Brain
	reg   *telemetry.Registry
	tr    *Tracer
	tb    *tracedBrain
	srv   *udprun.BrainServer
	conn  *net.UDPConn
	rx    *stampReader // conn with kernel receive times
	brain netip.AddrPort

	rng  *sim.Rand
	zipf *sim.Zipf

	rate   atomic.Uint64 // lookup rate (float64 bits)
	cur    atomic.Pointer[joinWindow]
	reqs   []atomic.Pointer[joinReq]
	tokens uint32

	epochMu sync.Mutex
	epochs  []float64 // ms per AdvanceEpoch call

	stop    chan struct{}
	sending sync.WaitGroup // sendLoop, epochLoop: end on stop
	reading sync.WaitGroup // recvLoop: ends when its socket closes
	errMu   sync.Mutex
	errs    errLog
}

func (s *joinSys) now() int64 { return int64(time.Since(s.t0)) }

func (s *joinSys) fail(err error) {
	s.errMu.Lock()
	s.errs.add(err)
	s.errMu.Unlock()
}

func newJoinSys(in *joinInputs, seed int64, tr *Tracer) (sys *joinSys, err error) {
	s := &joinSys{in: in, reg: telemetry.NewRegistry(), tr: tr, stop: make(chan struct{}), reqs: make([]atomic.Pointer[joinReq], 1<<18)}
	s.br = newJoinBrain(in, s.reg)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var api udprun.BrainAPI = s.br
	if tr != nil {
		s.tb = newTracedBrain(s.br, tr)
		api = s.tb
	}
	if s.srv, err = udprun.NewBrainServer(api, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if s.brain, err = netip.ParseAddrPort(s.srv.Addr()); err != nil {
		return nil, err
	}
	if s.conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, err
	}
	src := sim.NewSource(seed)
	s.rng = src.Stream("join")
	s.zipf = sim.NewZipf(src.Stream("zipf"), joinStreams, joinZipfS)
	s.setRate(joinLookupRate)
	s.t0 = time.Now()
	if s.rx, err = newStampReader(s.conn, s.t0); err != nil {
		return nil, err
	}
	s.reading.Add(1)
	go s.recvLoop()
	s.sending.Add(2)
	go s.sendLoop()
	go s.epochLoop()
	return s, nil
}

func (s *joinSys) setRate(r float64) { s.rate.Store(math.Float64bits(r)) }

// sendLoop is the open-loop generator: evenly spaced lookups at the
// current rate merged with evenly spaced link reports. A fixed schedule
// rather than Poisson bursts sets the load, so seeds differ in what is
// looked up and reported, not in how bursty the arrivals are.
func (s *joinSys) sendLoop() {
	defer s.sending.Done()
	timer := time.NewTimer(0)
	<-timer.C
	defer timer.Stop()
	nextLookup := int64(1e9 / math.Float64frombits(s.rate.Load()))
	reportIv := int64(1e9 / joinReportRate)
	nextReport := reportIv
	buf := make([]byte, 0, 64)
	for {
		due := min(nextLookup, nextReport)
		if d := time.Duration(due - s.now()); d > 0 {
			timer.Reset(d)
			select {
			case <-s.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-s.stop:
				return
			default:
			}
		}
		w := s.cur.Load()
		if w != nil {
			late := float64(s.now()-due) / 1e6
			w.mu.Lock()
			w.late = append(w.late, late)
			w.mu.Unlock()
		}
		buf = binary.BigEndian.AppendUint32(buf[:0], joinGenID)
		if due == nextReport {
			nextReport += reportIv
			l := s.in.links[s.rng.Intn(len(s.in.links))]
			rtt := float64(s.in.world.RTT(l[0], l[1])) * (0.9 + 0.2*s.rng.Float64())
			rep := wire.NodeReport{
				From: uint16(l[0]), To: uint16(l[1]),
				RTTMicros:   uint32(rtt / 1e3),
				LossPPM:     uint32(300 + s.rng.Intn(1000)),
				UtilPercent: uint16(s.rng.Intn(5000)),
				NodeUtil:    uint16(s.rng.Intn(5000)),
			}
			buf = rep.Marshal(buf)
		} else {
			nextLookup += int64(1e9 / math.Float64frombits(s.rate.Load()))
			s.tokens++
			tok := s.tokens
			if int(tok) >= len(s.reqs) {
				s.fail(errors.New("token space exhausted"))
				return
			}
			sid := s.in.sids[s.zipf.Draw()]
			r := &joinReq{due: due, sid: sid, consumer: s.rng.Intn(joinSites), win: w}
			s.reqs[tok].Store(r)
			if w != nil {
				w.mu.Lock()
				w.reqs = append(w.reqs, r)
				w.mu.Unlock()
			}
			req := wire.PathRequest{StreamID: sid, Consumer: uint16(r.consumer), Token: tok}
			buf = req.Marshal(buf)
		}
		if _, err := s.conn.WriteToUDPAddrPort(buf, s.brain); err != nil {
			s.fail(fmt.Errorf("generator send: %w", err))
		}
	}
}

// recvLoop validates every response: OK, and every path runs from the
// stream's producer to the requested consumer, loop-free, over reported
// links.
func (s *joinSys) recvLoop() {
	defer s.reading.Done()
	buf := make([]byte, 65536)
	reported := func(a, b int) bool { return s.in.reported[[2]int{a, b}] }
	for {
		n, at, err := s.rx.read(buf)
		if errors.Is(err, errNoStamp) {
			s.fail(err)
			continue
		}
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.fail(fmt.Errorf("generator socket: %w", err))
			}
			return
		}
		var resp wire.PathResponse
		if n < 4 || resp.Unmarshal(buf[4:n]) != nil {
			s.fail(errors.New("undecodable response"))
			continue
		}
		if int(resp.Token) >= len(s.reqs) {
			s.fail(fmt.Errorf("response for unknown token %d", resp.Token))
			continue
		}
		r := s.reqs[resp.Token].Load()
		if r == nil || r.answered.Swap(true) || resp.StreamID != r.sid {
			s.fail(fmt.Errorf("unexpected response token %d", resp.Token))
			continue
		}
		if s.tb != nil {
			// Generator times count from s.t0; spans from the tracer's base.
			off := int64(s.t0.Sub(s.tr.base))
			s.tb.rpcDone(uint64(resp.Token), lookupKey{r.sid, r.consumer}, r.due+off, at+off)
		}
		valid := resp.OK && len(resp.Paths) > 0
		for _, p := range resp.Paths {
			path := make([]int, len(p))
			for i, h := range p {
				path[i] = int(h)
			}
			if err := checkPath(path, s.in.producer[r.sid], r.consumer, reported); err != nil {
				s.fail(err)
				valid = false
			}
		}
		ms := float64(at-r.due) / 1e6
		if w := r.win; w != nil && valid && ms <= float64(joinTimeout)/1e6 {
			w.mu.Lock()
			w.lat = append(w.lat, ms)
			w.mu.Unlock()
		}
	}
}

// epochLoop advances Global Routing on a fixed schedule.
func (s *joinSys) epochLoop() {
	defer s.sending.Done()
	tick := time.NewTicker(joinEpoch)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		start := time.Now()
		s.br.AdvanceEpoch()
		d := time.Since(start)
		s.epochMu.Lock()
		s.epochs = append(s.epochs, float64(d)/1e6)
		s.epochMu.Unlock()
	}
}

func (s *joinSys) open() *joinWindow {
	w := &joinWindow{startNs: s.now(), cpu0: cpuTime()}
	s.cur.Store(w)
	return w
}

func (s *joinSys) shut(w *joinWindow) {
	if s.cur.CompareAndSwap(w, nil) {
		w.endNs = s.now()
		w.cpu = cpuTime() - w.cpu0
	}
}

func (s *joinSys) close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	// The generator stops before its socket closes, so it never writes
	// to a closed one.
	s.sending.Wait()
	if s.conn != nil {
		s.conn.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.reading.Wait()
	s.br.Close()
}

func runJoin(cfg passCfg) (*outcome, error) {
	o := newOutcome()
	in := newJoinInputs()
	var setups []float64
	var sys *joinSys
	for i := 0; i < cfg.setups; i++ {
		// Each build starts from a collected heap, so the garbage of the
		// last one is not collected on this one's clock.
		runtime.GC()
		t0 := time.Now()
		s, err := newJoinSys(in, cfg.seed, cfg.tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			s.close()
			continue
		}
		sys = s
	}
	defer sys.close()
	time.Sleep(joinWarmup)

	ramp := cfg.full
	steadyLen := time.Duration(cfg.seconds * float64(time.Second))
	if ramp {
		steadyLen = steadyLen * 80 / 100
	}
	m0 := sys.br.Metrics()
	mem := readMem()
	cpu0 := cpuTime()
	steal := startSteal()
	var subs []*joinWindow
	for end := time.Now().Add(steadyLen); time.Now().Before(end); {
		w := sys.open()
		time.Sleep(min(joinWindowLen, time.Until(end)))
		sys.shut(w)
		subs = append(subs, w)
	}
	cpu := cpuTime() - cpu0
	stolen := steal.share()
	m1 := sys.br.Metrics()

	best, bestRate := -1.0, 0.0
	if ramp {
		rampEnd := time.Now().Add(time.Duration(cfg.seconds*float64(time.Second)) * 20 / 100)
		var prev *joinWindow
		prevRate := 0.0
		for _, rate := range joinRampRates {
			if time.Now().Add(joinStepLen).After(rampEnd) {
				break
			}
			sys.setRate(rate)
			w := sys.open()
			if prev != nil {
				// The previous step's stragglers have had a full step to
				// answer; judge it now.
				ps := prev.stats()
				if !ps.pass() {
					prev = nil
					sys.shut(w)
					break
				}
				best, bestRate = max(best, ps.okPerSec), prevRate
			}
			time.Sleep(joinStepLen)
			sys.shut(w)
			prev, prevRate = w, rate
		}
		sys.setRate(joinLookupRate)
		if prev != nil {
			time.Sleep(joinTimeout)
			if ps := prev.stats(); ps.pass() {
				best, bestRate = max(best, ps.okPerSec), prevRate
			}
		}
	}
	time.Sleep(joinTimeout)
	steady := poolJoinWindows(subs)
	st := steady.stats()
	var p50s, p99s, cpus []float64
	for _, w := range subs {
		ws := w.stats()
		p50s, p99s = append(p50s, ws.p50), append(p99s, ws.p99)
		cpus = append(cpus, ratio(float64(w.cpu.Nanoseconds()), float64(ws.ok))/1e3)
	}
	sys.epochMu.Lock()
	epochs := append([]float64(nil), sys.epochs...)
	sys.epochMu.Unlock()
	if st.pass() && best < 0 {
		best, bestRate = st.okPerSec, joinLookupRate
	}
	best = max(best, 0)
	sys.close()

	o.attempted = st.attempted
	o.failed = st.failed
	o.errs = sys.errs
	steady.mu.Lock()
	o.lateMs = append([]float64(nil), steady.late...)
	steady.mu.Unlock()
	cpuPer := ratio(float64(cpu.Nanoseconds()), float64(st.ok))
	o.cost = cpuPer
	o.setE2E("setup_s", "s", median(setups), int64(len(setups)))
	o.windows = map[string][]float64{"p50_ms": p50s, "p99_ms": p99s, "cpu_us_per_op": cpus, "epoch_ms": epochs}
	o.setE2E("p50_ms", "ms", medianOf(p50s), int64(len(p50s)))
	o.setE2E("p99_ms", "ms", medianOf(p99s), int64(len(p99s)))
	o.setE2E("cpu_us_per_op", "us", medianOf(cpus), int64(len(cpus)))
	o.setE2E("ok_ratio", "ratio", ratio(float64(st.ok), float64(st.attempted)), st.attempted)
	o.addNamed("join_p50_ms", "ms", st.p50, st.attempted)
	o.addNamed("join_p99_ms", "ms", st.p99, st.attempted)
	o.addNamed("host.steal_share", "ratio", stolen, 1)
	o.addNamed("brain_epoch_ms_p50", "ms", medianOf(epochs), int64(len(epochs)))
	o.addNamed("join_fail_ratio", "ratio", ratio(float64(st.failed), float64(st.attempted)), st.attempted)
	o.addNamed("join_cpu_us_per_lookup", "us", cpuPer/1e3, st.ok)
	o.addNamed("join_answered_per_s", "1/s", st.okPerSec, st.ok)
	if ramp {
		o.addNamed("join_capacity_per_s", "1/s", best, 1)
		o.addNamed("join_capacity_step_rate", "1/s", bestRate, 1)
	}
	o.addNamed("setup_s", "s", median(setups), int64(len(setups)))

	if tr := cfg.tr; tr != nil {
		rpc := tr.selfByName("udprun.rpc")
		for i := range rpc {
			rpc[i] /= 1e6
		}
		o.setLayer("udprun.rpc_wait_ms_p50", "ms", pct(rpc, 0, 50), int64(len(rpc)))
		o.setLayer("udprun.rpc_wait_ms_p99", "ms", pct(rpc, 0, 99), int64(len(rpc)))
		lk := tr.stat("brain.lookup")
		o.setLayer("brain.lookup_us_p50", "us", pct(lk.durs, 0, 50)/1e3, lk.n)
		o.setLayer("brain.lookup_us_p99", "us", pct(lk.durs, 0, 99)/1e3, lk.n)
		rp := tr.stat("brain.report")
		o.setLayer("brain.report_us_p50", "us", pct(rp.durs, 0, 50)/1e3, rp.n)
		ep := append([]float64(nil), epochs...)
		o.setLayer("brain.epoch_ms_p50", "ms", pct(ep, 0, 50), int64(len(ep)))
		o.setLayer("brain.epoch_ms_max", "ms", pct(ep, 0, 100), int64(len(ep)))
		looks := m1.Lookups - m0.Lookups
		o.setLayer("brain.pib_miss_ratio", "ratio", ratio(float64(m1.PIBMisses-m0.PIBMisses), float64(looks)), int64(looks))
		o.setLayer("brain.pib_invalidate_full", "count", float64(sys.reg.Counter("brain.pib_invalidate_full").Load()), int64(len(ep)))
		o.setLayer("brain.pib_invalidate_incremental", "count", float64(sys.reg.Counter("brain.pib_invalidate_incremental").Load()), int64(len(ep)))
		goLayer(o, mem, st.ok)
	}
	return o, nil
}
