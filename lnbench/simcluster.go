package main

// sim-cluster: the packet-level cluster on the in-process emulator. A
// 24-site full mesh carries 8 broadcasters on the 3-rung simulcast
// ladder while about 120 viewers join over 30 simulated seconds, with
// link loss scaled up so NACK/RTX recovery and the GoP cache run. It
// never touches udprun: node, netem, client and the event loop only.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"livenet/internal/core"
	"livenet/internal/geo"
	"livenet/internal/media"
	"livenet/internal/netem"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/wire"
)

const (
	simSites        = 24
	simBroadcasters = 8
	simViewers      = 120
	simLossScale    = 3
	simLength       = 30 * time.Second
	simJoinFrom     = 500 * time.Millisecond
	simJoinUntil    = 20 * time.Second
	// simClusterSeed fixes the deployment (sites, links, their loss draws,
	// the broadcasters); the run seed places the viewers, picks their
	// streams and schedules their joins.
	simClusterSeed = 7
	simSetups      = 15
)

// simResult is one scenario run.
type simResult struct {
	wall      time.Duration
	steps     uint64
	qoe       simQoE
	digest    string
	respMs    float64
	localHits int
	rtx, fwd  uint64
	recovered uint64
	abandoned uint64
	netSent   uint64
	netLost   uint64
	handlerNs int64
}

type simQoE struct {
	viewers, started, fast int
	played, missed         int
	delays                 []float64 // ms, every viewer's capture->display samples
}

// newSimCluster is the sim's set-up: the cluster plus its broadcasters.
// Both are part of the fixed deployment.
func newSimCluster() (*core.Cluster, []uint32) {
	c := core.NewCluster(core.ClusterConfig{Seed: simClusterSeed, Sites: simSites, LossScale: simLossScale})
	place := sim.NewSource(simClusterSeed).Stream("broadcasters")
	var sids []uint32
	for b := 0; b < simBroadcasters; b++ {
		lat, lon, _ := geo.ViewerOrigin(place)
		bc := c.NewBroadcasterAt(lat, lon, uint32(100+10*b), media.DefaultRenditions)
		bc.Start()
		sids = append(sids, bc.StreamID(0))
	}
	return c, sids
}

// simSetupTime is the median of simSetups cluster builds.
func simSetupTime() (float64, int64) {
	var ts []float64
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		c, _ := newSimCluster()
		ts = append(ts, time.Since(t0).Seconds())
		c.Close()
	}
	return median(ts), int64(len(ts))
}

// runSimOnce builds the cluster and plays the scenario. With a tracer,
// every emulator delivery to a node or a viewer is timed.
func runSimOnce(seed int64, tr *Tracer, deadline time.Time) (*simResult, error) {
	r := &simResult{}
	scen := sim.NewSource(seed).Stream("scenario")
	c, sids := newSimCluster()
	defer c.Close()
	netReg := telemetry.NewRegistry()
	c.Net.Instrument(netReg)
	if tr != nil {
		for id, n := range c.Nodes {
			c.Net.Handle(id, simHandler(tr, n.OnMessage, r))
		}
	}
	type join struct {
		at       time.Duration
		lat, lon float64
		sid      uint32
	}
	zipf := sim.NewZipf(scen, simBroadcasters, 1.0)
	joins := make([]join, simViewers)
	for i := range joins {
		lat, lon, _ := geo.ViewerOrigin(scen)
		at := simJoinFrom + time.Duration(scen.Int63n(int64(simJoinUntil-simJoinFrom)))
		joins[i] = join{at: at, lat: lat, lon: lon, sid: sids[zipf.Draw()]}
	}
	sort.SliceStable(joins, func(a, b int) bool { return joins[a].at < joins[b].at })

	start := time.Now()
	var views []*core.Viewing
	step := func(until time.Duration) error {
		// Advance in bounded chunks so a wedged simulation ends the run.
		for c.Loop.Now() < until {
			c.Run(min(until-c.Loop.Now(), time.Second))
			if time.Now().After(deadline) {
				return errors.New("simulation exceeded its wall-clock budget")
			}
		}
		return nil
	}
	for _, j := range joins {
		if err := step(j.at); err != nil {
			return nil, err
		}
		v := c.NewViewerAt(j.lat, j.lon, j.sid)
		if tr != nil {
			c.Net.Handle(v.Viewer.ID, clientHandler(tr, v.Viewer.OnMessage, r))
		}
		if v.LocalHit {
			r.localHits++
		}
		views = append(views, v)
	}
	if err := step(simLength); err != nil {
		return nil, err
	}
	r.wall = time.Since(start)
	r.steps = c.Loop.Steps()

	h := fnv.New64a()
	var word [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(x))
		h.Write(word[:])
	}
	for _, v := range views {
		s := v.Stats()
		r.qoe.viewers++
		if s.Started {
			r.qoe.started++
		}
		if s.FastStartup() {
			r.qoe.fast++
		}
		r.qoe.played += s.FramesPlayed
		r.qoe.missed += s.FramesMissed
		put(int64(v.Viewer.ID))
		put(int64(v.ConsumerNode))
		put(int64(s.StartupDelay))
		put(int64(s.Stalls))
		put(int64(s.FramesPlayed))
		put(int64(s.FramesMissed))
		for _, d := range s.StreamingDelay {
			r.qoe.delays = append(r.qoe.delays, float64(d)/1e6)
			put(int64(d))
		}
	}
	for _, n := range c.Nodes {
		m := n.Metrics()
		r.rtx += m.Retransmits
		r.fwd += m.PacketsForwarded
		r.recovered += m.HolesRecovered
		r.abandoned += m.HolesAbandoned
		put(int64(m.PacketsReceived))
		put(int64(m.PacketsForwarded))
		put(int64(m.Retransmits))
	}
	r.digest = fmt.Sprintf("%016x", h.Sum64())
	r.respMs = c.RespTimes.Median()
	r.netSent = netReg.Counter("netem.packets_sent").Load()
	r.netLost = netReg.Counter("netem.packets_lost").Load()
	return r, nil
}

// simHandler times one node's emulator deliveries by message class.
func simHandler(tr *Tracer, h netem.Handler, r *simResult) netem.Handler {
	return func(from int, data []byte) {
		name := "node.sim.ctrl"
		switch wire.Kind(data) {
		case wire.MsgRTP:
			name = "node.sim.rtp"
		case wire.MsgRTCP:
			name = "node.sim.rtcp"
		}
		start := tr.now()
		h(from, data)
		end := tr.now()
		r.handlerNs += end - start
		id := rtpID(data)
		tr.add(name, id, -1, start, end, 1, sampled(id))
	}
}

// clientHandler times one viewer's emulator deliveries.
func clientHandler(tr *Tracer, h netem.Handler, r *simResult) netem.Handler {
	return func(from int, data []byte) {
		start := tr.now()
		h(from, data)
		end := tr.now()
		r.handlerNs += end - start
		id := rtpID(data)
		tr.add("client.onmsg", id, -1, start, end, 1, sampled(id))
	}
}

func runSim(cfg passCfg) (*outcome, error) {
	o := newOutcome()
	var runs []*simResult
	var speeds []float64
	setup, nSetup := simSetupTime()
	budget := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	mem := readMem()
	cpu0 := cpuTime()
	// A full run plays the scenario at least twice, so determinism is
	// checked on every run, and more while the budget lasts; a traced
	// run's passes play it once each and compare digests across passes.
	for len(runs) == 0 || (cfg.full && (len(runs) < 2 || time.Now().Add(runs[0].wall).Before(budget))) {
		r, err := runSimOnce(cfg.seed, cfg.tr, cfg.deadline)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		speeds = append(speeds, simLength.Seconds()/r.wall.Seconds())
	}
	cpu := cpuTime() - cpu0
	first := runs[0]
	for _, r := range runs[1:] {
		if r.digest != first.digest {
			o.errs.add(fmt.Errorf("QoE digest differs between runs of one seed: %s vs %s", first.digest, r.digest))
		}
	}
	o.digest = first.digest
	q := first.qoe
	var played int64
	for _, r := range runs {
		played += int64(r.qoe.played)
	}
	// The operation is a scenario run; it fails when it errors (above) or
	// disagrees with the first. A viewer that never starts playback is a
	// simulated QoE outcome, reported as sim_unstarted_viewers.
	o.attempted = int64(len(runs))
	o.failed = int64(o.errs.n)
	delays := append([]float64(nil), q.delays...)
	speed := median(append([]float64(nil), speeds...))
	var wall time.Duration
	for _, r := range runs {
		wall += r.wall
	}
	var steps uint64
	for _, r := range runs {
		steps += r.steps
	}
	// Work is counted in simulator events: the scenario's size varies
	// with the seed, the cost of an event much less.
	cpuPer := ratio(float64(cpu.Nanoseconds()), float64(steps))
	o.cost = float64(wall) / float64(len(runs)) // wall per scenario
	o.setE2E("setup_s", "s", setup, nSetup)
	o.setE2E("p50_ms", "ms", pct(delays, 0, 50), int64(len(delays)))
	o.setE2E("p99_ms", "ms", pct(delays, 0, 99), int64(len(delays)))
	o.setE2E("cpu_us_per_op", "us", cpuPer/1e3, int64(steps))
	o.setE2E("ok_ratio", "ratio", ratio(float64(q.played), float64(q.played+q.missed)), int64(q.played+q.missed))
	o.addNamed("sim_speed_x", "x", speed, int64(len(speeds)))
	o.addNamed("sim_fast_startup_ratio", "ratio", ratio(float64(q.fast), float64(q.viewers)), int64(q.viewers))
	o.addNamed("sim_unstarted_viewers", "count", float64(q.viewers-q.started), int64(q.viewers))
	o.addNamed("sim_delay_p50_ms", "ms", pct(delays, 0, 50), int64(len(delays)))
	o.addNamed("sim_frames_missed_ratio", "ratio", ratio(float64(q.missed), float64(q.played+q.missed)), int64(q.played+q.missed))
	o.addNamed("setup_s", "s", setup, nSetup)

	if tr := cfg.tr; tr != nil {
		r := first
		for _, k := range []string{"rtp", "rtcp", "ctrl"} {
			a := tr.stat("node.sim." + k)
			o.setLayer("node.sim.onmsg_us_"+k, "us", ratio(float64(a.sumNs)/1e3, float64(a.n)), a.n)
		}
		o.setLayer("node.rtx_ratio", "ratio", ratio(float64(r.rtx), float64(r.fwd)), int64(r.fwd))
		o.setLayer("node.hole_recovered_ratio", "ratio", ratio(float64(r.recovered), float64(r.recovered+r.abandoned)), int64(r.recovered+r.abandoned))
		o.setLayer("node.local_hit_ratio", "ratio", ratio(float64(r.localHits), float64(q.viewers)), int64(q.viewers))
		o.setLayer("brain.resp_ms_p50", "ms", r.respMs, int64(q.viewers))
		o.setLayer("sim.events_per_sim_s", "1/s", float64(r.steps)/simLength.Seconds(), int64(r.steps))
		o.setLayer("sim.events_per_wall_s", "1/s", float64(r.steps)/r.wall.Seconds(), int64(r.steps))
		o.setLayer("netem.dgrams_per_sim_s", "1/s", float64(r.netSent)/simLength.Seconds(), int64(r.netSent))
		o.setLayer("netem.loss_ratio", "ratio", ratio(float64(r.netLost), float64(r.netSent)), int64(r.netSent))
		cl := tr.stat("client.onmsg")
		o.setLayer("client.onmsg_us", "us", ratio(float64(cl.sumNs)/1e3, float64(cl.n)), cl.n)
		// The loop is single-threaded and handlers never nest, so the
		// run's self time outside them is its wall time minus their sum.
		o.setLayer("sim.other_share", "ratio", 1-ratio(float64(r.handlerNs), float64(r.wall)), 1)
		goLayer(o, mem, played)
	}
	return o, nil
}
