package main

// relay-fanout: one broadcaster -> producer -> relay -> consumer ->
// viewers over real loopback UDP. The generator is the broadcaster and
// every viewer: it sends two 2.5 Mbps streams open-loop at 25 fps from a
// standard-library socket and receives all viewer copies on another.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"livenet/internal/brain"
	"livenet/internal/media"
	"livenet/internal/node"
	"livenet/internal/rtp"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/udprun"
	"livenet/internal/wire"
)

const (
	relayProducer    = 0
	relayRelay       = 1
	relayConsumer    = 2
	relayBroadcaster = 1000
	relayViewerBase  = 2000
	relayStreams     = 2
	relaySIDBase     = 100
	relayBitrate     = 2_500_000
	// relayPaceBps pins every pacer at the node's default initial rate.
	// On loopback there is no bottleneck for GCC to find, but on a shared
	// host it reads CPU stalls as queueing delay; its decrease to 0.85 of
	// the incoming rate then puts an overlay pacer below the open-loop
	// streams' rate, the queue never drains and the run collapses (at
	// 16 % host steal, 3 of 5 runs lost 43-77 % of viewer copies with an
	// overlay pacer at 0.8-2.3 Mbit/s).
	relayPaceBps = 8e6
	// relayFanout viewers per stream in the steady phase: about 44k
	// delivered datagrams/s, which keeps the one core about a third busy.
	// Each ramp step grows the fan-out to relayRampGrowth percent of the
	// last.
	relayFanout     = 80
	relayRampGrowth = 125
	// A viewer copy later than the deadline after its frame was due is
	// lost. Ramp steps are judged against the same limits the steady
	// phase reports: p99 and loss.
	relayDeadline     = time.Second
	relayRampDeadline = 500 * time.Millisecond
	relayP99LimitMs   = 400
	relayLossLimit    = 0.001
	relayWarmup       = time.Second
	// A ramp viewer joining an established stream is a local hit: the
	// consumer replays up to a GoP (~0.6 s at the 8 Mbps initial pacer
	// rate) before live packets reach it, so a step settles past that.
	relaySettle       = 1200 * time.Millisecond
	relayStepLen      = 1400 * time.Millisecond
	relayReadyTimeout = 10 * time.Second
	// The steady phase is cut into GoP-long windows (each holds one I
	// frame per stream); p50_ms, p99_ms and cpu_us_per_op are medians
	// over the windows, so a stall the host imposes on one window moves
	// that window alone.
	relaySubWindow = 2 * time.Second
)

// poolWindows merges closed windows into one for whole-phase totals.
func poolWindows(ws []*window) *window {
	p := &window{startNs: ws[0].startNs, endNs: ws[len(ws)-1].endNs}
	for _, w := range ws {
		w.mu.Lock()
		p.lat = append(p.lat, w.lat...)
		p.pkts = append(p.pkts, w.pkts...)
		p.late = append(p.late, w.late...)
		w.mu.Unlock()
	}
	return p
}

// window collects the viewer copies of the packets sent while it was
// open.
type window struct {
	deadlineMs float64
	startNs    int64
	endNs      int64
	cpu0, cpu  time.Duration

	mu   sync.Mutex
	lat  []float64 // ms from due to arrival, first `expect` copies only
	pkts []*sentPkt
	late []float64 // generator lateness per frame, ms
}

// windowStats summarises a closed window.
type windowStats struct {
	expected, inTime int64
	p50, p99         float64
	pps              float64 // in-time copies per second of window
	lossRatio        float64
}

func (w *window) stats() windowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	var st windowStats
	for _, p := range w.pkts {
		st.expected += int64(p.expect)
	}
	st.inTime = int64(len(w.lat))
	failed := int(max(0, st.expected-st.inTime))
	lat := append([]float64(nil), w.lat...)
	st.p50 = pct(lat, failed, 50)
	st.p99 = pct(lat, failed, 99)
	st.pps = float64(st.inTime) / (float64(w.endNs-w.startNs) / 1e9)
	st.lossRatio = ratio(float64(st.expected-st.inTime), float64(st.expected))
	return st
}

func (st windowStats) pass() bool {
	return st.expected > 0 && st.p99 <= relayP99LimitMs && st.lossRatio <= relayLossLimit
}

// relaySys is one built system plus its generator.
type relaySys struct {
	t0    time.Time
	clock *sim.RealClock
	tr    *Tracer

	br    *brain.Brain
	tb    *tracedBrain
	srv   *udprun.BrainServer
	nodes [3]*node.Node
	eps   [3]*udprun.Endpoint
	regs  [3]*telemetry.Registry

	bcConn, viewConn *net.UDPConn
	rx               *stampReader // viewConn with kernel receive times
	producer         netip.AddrPort
	viewAddr         string

	encs  [relayStreams]*media.Encoder
	pktz  [relayStreams]*media.Packetizer
	pool  []byte
	rng   *sim.Rand
	slots [relayStreams][]atomic.Pointer[sentPkt]

	viewers   [relayStreams]atomic.Int32
	attached  [relayStreams]int
	cur       atomic.Pointer[window]
	firstCopy [relayStreams]atomic.Bool
	ingress   [relayStreams][]atomic.Int64
	stop      chan struct{}
	sending   sync.WaitGroup // sendLoop: ends on stop
	reading   sync.WaitGroup // recvLoop: ends when its socket closes
	errMu     sync.Mutex
	errs      errLog
}

func (s *relaySys) now() int64 { return int64(time.Since(s.t0)) }

func (s *relaySys) fail(err error) {
	s.errMu.Lock()
	s.errs.add(err)
	s.errMu.Unlock()
}

func (s *relaySys) lookup(ssrc uint32, seq uint16) *sentPkt {
	st := int(ssrc) - relaySIDBase
	if st < 0 || st >= relayStreams {
		return nil
	}
	return s.slots[st][seq].Load()
}

// newRelaySys builds the Brain, the three nodes and the generator, starts
// broadcasting, attaches relayFanout viewers per stream and returns once
// both streams reach the viewer socket.
func newRelaySys(seed int64, tr *Tracer) (sys *relaySys, err error) {
	s := &relaySys{t0: time.Now(), clock: sim.NewRealClock(), tr: tr, stop: make(chan struct{})}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	src := sim.NewSource(seed)
	s.rng = src.Stream("relay")
	s.pool = make([]byte, 64<<10)
	s.rng.Read(s.pool)
	for st := 0; st < relayStreams; st++ {
		s.encs[st] = media.NewEncoder(media.DefaultEncoderConfig(relayBitrate), src.Stream(fmt.Sprintf("enc%d", st)))
		s.pktz[st] = media.NewPacketizer(uint32(relaySIDBase + st))
		s.slots[st] = make([]atomic.Pointer[sentPkt], 1<<16)
		s.ingress[st] = make([]atomic.Int64, 1<<16)
	}
	// Independent broadcasters are not GoP-aligned: offset the second
	// stream by half a GoP so I frames do not collide on the overlay.
	for i := 0; i < media.DefaultEncoderConfig(relayBitrate).GoPFrames/2; i++ {
		s.encs[1].NextFrame()
	}

	// A 3-node Brain that knows only producer<->relay<->consumer links, so
	// the consumer's path runs through the relay.
	s.br = brain.New(brain.Config{N: 3})
	for _, l := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		s.br.ReportLink(l[0], l[1], time.Millisecond, 0, 0.1)
	}
	var api udprun.BrainAPI = s.br
	if tr != nil {
		s.tb = newTracedBrain(s.br, tr)
		api = s.tb
	}
	if s.srv, err = udprun.NewBrainServer(api, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	roles := [3]string{"node.producer.onmsg", "node.relay.onmsg", "node.consumer.onmsg"}
	for id := 0; id < 3; id++ {
		s.regs[id] = telemetry.NewRegistry()
		ep, err := udprun.ListenOpts(id, "127.0.0.1:0", udprun.Options{Telemetry: s.regs[id]})
		if err != nil {
			return nil, err
		}
		s.eps[id] = ep
		cli, err := udprun.NewBrainClient(ep, s.srv.Addr())
		if err != nil {
			return nil, err
		}
		id := id
		var net node.Sender = ep
		lookup := cli.Lookup
		if tr != nil {
			ts := &tracedSender{ep: ep, tr: tr}
			if id == relayConsumer {
				ts.onSend = s.pacerWait
			}
			net = ts
			lookup = s.tracedLookup(cli.Lookup)
		}
		n := node.New(node.Config{
			ID:             id,
			Clock:          s.clock,
			Net:            net,
			PathLookup:     lookup,
			OnNewStream:    func(sid uint32) { cli.RegisterStream(sid, id) },
			IsOverlay:      func(peer int) bool { return peer < relayBroadcaster },
			InitialRateBps: relayPaceBps,
			MinRateBps:     relayPaceBps,
			MaxRateBps:     relayPaceBps,
		})
		s.nodes[id] = n
		h := n.OnMessage
		if tr != nil {
			var onIngress func(uint64, int64)
			if id == relayConsumer {
				onIngress = s.noteIngress
			}
			h = tracedHandler(tr, roles[id], h, onIngress)
		}
		ep.Serve(cli.WrapHandler(h))
	}
	for i := range s.eps {
		for j := range s.eps {
			if i != j {
				if err := s.eps[i].AddPeer(j, s.eps[j].Addr()); err != nil {
					return nil, err
				}
			}
		}
	}

	// Generator sockets (standard library, not udprun).
	if s.bcConn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, err
	}
	if s.viewConn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, err
	}
	if err := s.viewConn.SetReadBuffer(4 << 20); err != nil {
		return nil, err
	}
	if s.rx, err = newStampReader(s.viewConn, s.t0); err != nil {
		return nil, err
	}
	s.viewAddr = s.viewConn.LocalAddr().String()
	pa, err := netip.ParseAddrPort(s.eps[relayProducer].Addr())
	if err != nil {
		return nil, err
	}
	s.producer = pa
	s.reading.Add(1)
	go s.recvLoop()
	s.sending.Add(1)
	go s.sendLoop()

	// The first frames register both streams with the Brain.
	if err := waitFor(relayReadyTimeout, func() bool {
		for st := 0; st < relayStreams; st++ {
			if _, ok := s.br.Producer(uint32(relaySIDBase + st)); !ok {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("streams never registered: %w", err)
	}
	for st := 0; st < relayStreams; st++ {
		if err := s.attach(st, relayFanout); err != nil {
			return nil, err
		}
	}
	if err := waitFor(relayReadyTimeout, func() bool {
		for st := 0; st < relayStreams; st++ {
			if !s.firstCopy[st].Load() {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("streams never reached the viewers: %w", err)
	}
	return s, nil
}

// attach adds n viewers of stream st at the consumer, all behind the
// generator's viewer socket.
func (s *relaySys) attach(st, n int) error {
	cons := s.nodes[relayConsumer]
	// Count the viewers before attaching them: a local hit starts
	// replaying the GoP cache to the new viewer at once.
	s.viewers[st].Store(int32(s.attached[st] + n))
	for i := 0; i < n; i++ {
		id := relayViewerBase + st*4000 + s.attached[st]
		if err := s.eps[relayConsumer].AddPeer(id, s.viewAddr); err != nil {
			return err
		}
		cons.AttachViewer(id, uint32(relaySIDBase+st))
		s.attached[st]++
	}
	return nil
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	end := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(end) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// sendLoop is the open-loop broadcaster: frame k of every stream is due
// at k/25 s after start, whatever the system does.
func (s *relaySys) sendLoop() {
	defer s.sending.Done()
	frameIv := s.encs[0].FrameInterval()
	timer := time.NewTimer(0)
	<-timer.C
	defer timer.Stop()
	var pkts []rtp.Packet
	buf := make([]byte, 0, 2048)
	var scratch []byte
	seed10us := uint32(80 * time.Millisecond / (10 * time.Microsecond))
	for k := int64(0); ; k++ {
		due := k * int64(frameIv)
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
		for st := 0; st < relayStreams; st++ {
			pkts = s.pktz[st].Packetize(s.encs[st].NextFrame(), seed10us, pkts[:0])
			expect := s.viewers[st].Load()
			for i := range pkts {
				p := &pkts[i]
				body := p.Payload[media.FrameHeaderLen:]
				off := s.rng.Intn(len(s.pool) - len(body) + 1)
				copy(body, s.pool[off:])
				sp := &sentPkt{due: due, payload: p.Payload, expect: expect, win: w}
				s.slots[st][p.SequenceNumber].Store(sp)
				if w != nil {
					w.mu.Lock()
					w.pkts = append(w.pkts, sp)
					w.mu.Unlock()
				}
				scratch = p.Marshal(scratch[:0])
				buf = binary.BigEndian.AppendUint32(buf[:0], relayBroadcaster)
				buf = wire.FrameRTP(buf, uint32(s.clock.Now()/(10*time.Microsecond)), scratch)
				if _, err := s.bcConn.WriteToUDPAddrPort(buf, s.producer); err != nil {
					s.fail(fmt.Errorf("broadcaster send: %w", err))
				}
			}
		}
	}
}

// recvLoop validates every datagram on the viewer socket and times the
// first `expect` copies of each packet.
func (s *relaySys) recvLoop() {
	defer s.reading.Done()
	buf := make([]byte, 4096)
	for {
		n, at, err := s.rx.read(buf)
		if errors.Is(err, errNoStamp) {
			s.fail(err)
			continue
		}
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.fail(fmt.Errorf("viewer socket: %w", err))
			}
			return
		}
		dg := buf[:n]
		if n > 4 && dg[4] == wire.MsgRTCP {
			continue // consumer feedback toward the client; not media
		}
		sp, err := checkRelayDatagram(dg, relayConsumer, s.lookup)
		if err != nil {
			s.fail(err)
			continue
		}
		st := int(binary.BigEndian.Uint32(dg[4+wire.RTPHeaderLen+8:])) - relaySIDBase
		g := atomic.AddInt32(&sp.got, 1)
		if err := checkCopies(g, s.viewers[st].Load()); err != nil {
			s.fail(err)
		}
		s.firstCopy[st].Store(true)
		if w := sp.win; w != nil && g <= sp.expect {
			if ms := float64(at-sp.due) / 1e6; ms <= w.deadlineMs {
				w.mu.Lock()
				w.lat = append(w.lat, ms)
				w.mu.Unlock()
			}
		}
	}
}

// open starts a measurement window; close it by opening the next one or
// storing nil.
func (s *relaySys) open(deadline time.Duration) *window {
	w := &window{deadlineMs: float64(deadline) / 1e6, startNs: s.now(), cpu0: cpuTime()}
	s.cur.Store(w)
	return w
}

func (s *relaySys) shut(w *window) {
	if s.cur.CompareAndSwap(w, nil) {
		w.endNs = s.now()
		w.cpu = cpuTime() - w.cpu0
	}
}

func (s *relaySys) noteIngress(id uint64, at int64) {
	ssrc, seq := uint32((id-1)>>16), uint16(id-1)
	if st := int(ssrc) - relaySIDBase; st >= 0 && st < relayStreams {
		s.ingress[st][seq].Store(at)
	}
}

// pacerWait records the time a viewer copy spent between consumer
// ingress and its submit to the transport.
func (s *relaySys) pacerWait(id uint64, at int64) {
	ssrc, seq := uint32((id-1)>>16), uint16(id-1)
	st := int(ssrc) - relaySIDBase
	if st < 0 || st >= relayStreams {
		return
	}
	if in := s.ingress[st][seq].Load(); in > 0 && in <= at {
		s.tr.add("gcc.pacer_wait", id, -1, in, at, 1, false)
	}
}

// tracedLookup times the node's Path Decision RPC (request to callback).
func (s *relaySys) tracedLookup(lookup node.PathLookupFunc) node.PathLookupFunc {
	var tok atomic.Uint64
	return func(sid uint32, consumer int, cb func([][]int, error)) {
		t := tok.Add(1)
		start := s.tr.now()
		lookup(sid, consumer, func(paths [][]int, err error) {
			s.tb.rpcDone(t, lookupKey{sid, consumer}, start, s.tr.now())
			cb(paths, err)
		})
	}
}

func (s *relaySys) close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	// The broadcaster stops before any socket closes, so it never writes
	// to a closed one.
	s.sending.Wait()
	for _, n := range s.nodes {
		if n != nil {
			n.Close()
		}
	}
	for _, ep := range s.eps {
		if ep != nil {
			ep.Close()
		}
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.bcConn != nil {
		s.bcConn.Close()
	}
	if s.viewConn != nil {
		s.viewConn.Close()
	}
	s.reading.Wait()
	if s.br != nil {
		s.br.Close()
	}
}

func runRelay(cfg passCfg) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var sys *relaySys
	for i := 0; i < cfg.setups; i++ {
		// Each build starts from a collected heap, so the garbage of the
		// last one is not collected on this one's clock.
		runtime.GC()
		t0 := time.Now()
		s, err := newRelaySys(cfg.seed, cfg.tr)
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
	time.Sleep(relayWarmup)

	// Steady phase, then (untraced runs only) the capacity ramp.
	ramp := cfg.full
	steadyLen := time.Duration(cfg.seconds * float64(time.Second))
	if ramp {
		steadyLen = steadyLen * 80 / 100
	}
	mem := readMem()
	cpu0 := cpuTime()
	steal := startSteal()
	drops0, _ := udpRcvbufErrors()
	var subs []*window
	minRate := 0.0 // slowest overlay-link pacer rate seen, bit/s
	for end := time.Now().Add(steadyLen); time.Now().Before(end); {
		w := sys.open(relayDeadline)
		time.Sleep(min(relaySubWindow, time.Until(end)))
		sys.shut(w)
		subs = append(subs, w)
		for _, hop := range [][2]int{{relayProducer, relayRelay}, {relayRelay, relayConsumer}} {
			if r, _, ok := sys.nodes[hop[0]].LinkState(hop[1]); ok && (minRate == 0 || r < minRate) {
				minRate = r
			}
		}
	}
	cpu := cpuTime() - cpu0
	stolen := steal.share()
	// The steady phase's last copies land before the ramp adds load.
	time.Sleep(relayDeadline)
	drops1, _ := udpRcvbufErrors()
	steady := poolWindows(subs)
	st := steady.stats()
	var p50s, p99s, cpus []float64
	for _, w := range subs {
		ws := w.stats()
		p50s, p99s = append(p50s, ws.p50), append(p99s, ws.p99)
		cpus = append(cpus, ratio(float64(w.cpu.Nanoseconds()), float64(ws.inTime))/1e3)
	}

	best := 0.0
	steps := 0
	if st.pass() {
		best = st.pps
	}
	if ramp {
		rampEnd := time.Now().Add(time.Duration(cfg.seconds*float64(time.Second)) * 20 / 100)
		var prev *window
		for time.Now().Add(relaySettle + relayStepLen).Before(rampEnd) {
			for st := 0; st < relayStreams; st++ {
				if err := sys.attach(st, sys.attached[st]*relayRampGrowth/100-sys.attached[st]); err != nil {
					return nil, err
				}
			}
			time.Sleep(relaySettle)
			if prev != nil {
				ps := prev.stats()
				if !ps.pass() {
					prev = nil
					break
				}
				best, steps = max(best, ps.pps), steps+1
			}
			prev = sys.open(relayRampDeadline)
			time.Sleep(relayStepLen)
			sys.shut(prev)
		}
		if prev != nil {
			time.Sleep(relayRampDeadline)
			if ps := prev.stats(); ps.pass() {
				best, steps = max(best, ps.pps), steps+1
			}
		}
	}
	sys.close()

	o.attempted = st.expected
	o.failed = st.expected - st.inTime
	o.errs = sys.errs
	steady.mu.Lock()
	o.lateMs = append([]float64(nil), steady.late...)
	steady.mu.Unlock()
	cpuPer := ratio(float64(cpu.Nanoseconds()), float64(st.inTime))
	o.cost = cpuPer
	o.setE2E("setup_s", "s", median(setups), int64(len(setups)))
	o.windows = map[string][]float64{"p50_ms": p50s, "p99_ms": p99s, "cpu_us_per_op": cpus}
	o.setE2E("p50_ms", "ms", medianOf(p50s), int64(len(p50s)))
	o.setE2E("p99_ms", "ms", medianOf(p99s), int64(len(p99s)))
	o.setE2E("cpu_us_per_op", "us", medianOf(cpus), int64(len(cpus)))
	o.setE2E("ok_ratio", "ratio", ratio(float64(st.inTime), float64(st.expected)), st.expected)
	o.addNamed("relay_pkt_p50_ms", "ms", st.p50, st.expected)
	o.addNamed("relay_pkt_p99_ms", "ms", st.p99, st.expected)
	o.addNamed("host.steal_share", "ratio", stolen, 1)
	o.addNamed("relay_overlay_rate_min_mbps", "Mbit/s", minRate/1e6, int64(len(subs)))
	o.addNamed("host.udp_rcvbuf_drops", "count", float64(drops1-drops0), 1)
	o.addNamed("relay_loss_ratio", "ratio", st.lossRatio, st.expected)
	o.addNamed("relay_cpu_ns_per_pkt", "ns", cpuPer, st.inTime)
	o.addNamed("relay_delivered_pps", "1/s", st.pps, st.inTime)
	if ramp {
		o.addNamed("relay_capacity_pps", "1/s", best, int64(steps+1))
	}
	o.addNamed("setup_s", "s", median(setups), int64(len(setups)))

	if tr := cfg.tr; tr != nil {
		send := tr.stat("udprun.send")
		o.setLayer("udprun.send_us_per_dgram", "us", ratio(float64(send.sumNs)/1e3, float64(send.work)), send.work)
		o.setLayer("udprun.send_batch_mean", "count", ratio(float64(send.work), float64(send.n)), send.n)
		var dropped uint64
		for _, r := range sys.regs {
			dropped += r.Counter("udprun.rx_dropped").Load()
		}
		o.setLayer("udprun.rx_dropped", "count", float64(dropped), 3)
		for _, role := range []string{"producer", "relay", "consumer"} {
			self := tr.selfByName("node." + role + ".onmsg")
			o.setLayer("node."+role+".onmsg_us", "us", meanF(self)/1e3, int64(len(self)))
		}
		var rx, fwd, drops uint64
		for _, n := range sys.nodes {
			m := n.Metrics()
			rx += m.PacketsReceived
			fwd += m.PacketsForwarded
			drops += m.DroppedBFrames + m.DroppedPFrames + m.DroppedGoPs
		}
		o.setLayer("node.fanout_per_ingress", "count", ratio(float64(fwd), float64(rx)), int64(rx))
		o.setLayer("node.frame_drops", "count", float64(drops), 3)
		pw := tr.stat("gcc.pacer_wait")
		o.setLayer("gcc.pacer_wait_ms_p50", "ms", pct(pw.durs, 0, 50)/1e6, pw.n)
		o.setLayer("gcc.pacer_wait_ms_p99", "ms", pct(pw.durs, 0, 99)/1e6, pw.n)
		goLayer(o, mem, st.inTime)
	}
	return o, nil
}
