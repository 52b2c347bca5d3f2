package gcc

import (
	"math/rand"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestInterArrivalStableSpacing(t *testing.T) {
	var ia InterArrival
	// Send and arrival spacings identical: samples should be ~0.
	for i := 0; i < 50; i++ {
		send := time.Duration(i) * 10 * ms
		arr := send + 30*ms
		if d, ok := ia.Add(send, arr); ok && d != 0 {
			t.Fatalf("stable spacing produced nonzero sample %v", d)
		}
	}
}

func TestInterArrivalQueueBuildup(t *testing.T) {
	var ia InterArrival
	positives := 0
	for i := 0; i < 50; i++ {
		send := time.Duration(i) * 10 * ms
		// Arrival spacing inflates by 1 ms per group: queues building.
		arr := send + 30*ms + time.Duration(i*i/2)*ms/5
		if d, ok := ia.Add(send, arr); ok && d > 0 {
			positives++
		}
	}
	if positives < 20 {
		t.Fatalf("queue buildup should yield positive samples, got %d", positives)
	}
}

func TestInterArrivalGroupsBursts(t *testing.T) {
	var ia InterArrival
	samples := 0
	// Packets 1 ms apart in send time fall into 5 ms groups.
	for i := 0; i < 100; i++ {
		send := time.Duration(i) * ms
		if _, ok := ia.Add(send, send+20*ms); ok {
			samples++
		}
	}
	if samples == 0 || samples > 25 {
		t.Fatalf("grouping wrong: %d samples from 100 packets (want ~16)", samples)
	}
}

func TestTrendlineDetectsOveruse(t *testing.T) {
	e := NewTrendlineEstimator()
	now := time.Duration(0)
	// Steadily growing one-way delay: +2 ms per sample.
	sig := SignalNormal
	for i := 0; i < 60; i++ {
		now += 5 * ms
		sig = e.Update(2*ms, now)
	}
	if sig != SignalOveruse {
		t.Fatalf("monotone delay growth should signal overuse, got %v", sig)
	}
}

func TestTrendlineStableIsNormal(t *testing.T) {
	e := NewTrendlineEstimator()
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		now += 5 * ms
		d := time.Duration(0)
		if i%2 == 0 {
			d = ms / 10
		} else {
			d = -ms / 10
		}
		if sig := e.Update(d, now); sig == SignalOveruse {
			t.Fatalf("jittery-but-stable delay flagged overuse at sample %d", i)
		}
	}
}

func TestTrendlineDetectsUnderuse(t *testing.T) {
	e := NewTrendlineEstimator()
	now := time.Duration(0)
	// First build a queue, then drain it sharply.
	for i := 0; i < 40; i++ {
		now += 5 * ms
		e.Update(2*ms, now)
	}
	var sig Signal
	for i := 0; i < 40; i++ {
		now += 5 * ms
		sig = e.Update(-4*ms, now)
	}
	if sig != SignalUnderuse && sig != SignalNormal {
		t.Fatalf("draining queue should not be overuse, got %v", sig)
	}
}

func TestAIMDDecreaseOnOveruse(t *testing.T) {
	a := NewAIMD(2_000_000, 100_000, 10_000_000)
	now := time.Duration(0)
	rate := a.Update(SignalOveruse, 1_800_000, now)
	want := 0.85 * 1_800_000
	if rate != want {
		t.Fatalf("rate after overuse = %v, want %v", rate, want)
	}
}

func TestAIMDIncreaseOnNormal(t *testing.T) {
	a := NewAIMD(1_000_000, 100_000, 10_000_000)
	now := time.Duration(0)
	start := a.Rate()
	for i := 0; i < 10; i++ {
		now += 100 * ms
		a.Update(SignalNormal, 950_000*2, now) // plenty of incoming headroom
	}
	if a.Rate() <= start {
		t.Fatalf("normal signal should grow the rate: %v -> %v", start, a.Rate())
	}
}

func TestAIMDHoldOnUnderuse(t *testing.T) {
	a := NewAIMD(1_000_000, 100_000, 10_000_000)
	now := 100 * ms
	a.Update(SignalNormal, 2_000_000, now)
	r := a.Rate()
	now += 100 * ms
	if got := a.Update(SignalUnderuse, 2_000_000, now); got != r {
		t.Fatalf("underuse should hold: %v -> %v", r, got)
	}
}

func TestAIMDBoundedByIncoming(t *testing.T) {
	// Growth stops at 1.5x the measured incoming rate.
	a := NewAIMD(1_200_000, 100_000, 50_000_000)
	now := time.Duration(0)
	for i := 0; i < 50; i++ {
		now += 100 * ms
		a.Update(SignalNormal, 1_000_000, now)
	}
	if a.Rate() > 1.5*1_000_000 {
		t.Fatalf("rate %v should be capped at 1.5x incoming", a.Rate())
	}
}

func TestAIMDCapNeverCutsStandingEstimate(t *testing.T) {
	// The cap is growth-limiting only: a standing estimate above
	// 1.5x incoming is held, not slashed — a transient arrival pause
	// drains the rate meter without any congestion, and cutting the
	// estimate to the momentary trickle would be a spurious collapse.
	// Genuine congestion decreases through the overuse path instead.
	a := NewAIMD(5_000_000, 100_000, 50_000_000)
	now := 100 * ms
	a.Update(SignalNormal, 1_000_000, now)
	if r := a.Rate(); r < 5_000_000 {
		t.Fatalf("normal signal with a drained meter cut the rate: %v", r)
	}
	if r := a.Rate(); r > 5_000_000 {
		t.Fatalf("rate %v grew past the standing estimate while above the cap", r)
	}
	now += 100 * ms
	a.Update(SignalOveruse, 1_000_000, now)
	if r := a.Rate(); r != 0.85*1_000_000 {
		t.Fatalf("overuse should still decrease to 85%% of incoming: got %v", r)
	}
}

func TestAIMDRespectsBounds(t *testing.T) {
	a := NewAIMD(200_000, 150_000, 300_000)
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		now += 100 * ms
		a.Update(SignalOveruse, 10_000, now)
	}
	if a.Rate() < 150_000 {
		t.Fatalf("rate %v below floor", a.Rate())
	}
	for i := 0; i < 200; i++ {
		now += 100 * ms
		a.Update(SignalNormal, 10_000_000, now)
	}
	if a.Rate() > 300_000 {
		t.Fatalf("rate %v above ceiling", a.Rate())
	}
}

func TestLossBased(t *testing.T) {
	l := NewLossBased(1_000_000, 100_000, 10_000_000)
	l.OnReport(0.20) // heavy loss: 1 - 0.1 = 0.9
	if got := l.Rate(); got != 900_000 {
		t.Fatalf("rate after 20%% loss = %v, want 900000", got)
	}
	l.OnReport(0.05) // between 2% and 10%: hold
	if got := l.Rate(); got != 900_000 {
		t.Fatalf("rate after 5%% loss = %v, want hold at 900000", got)
	}
	l.OnReport(0.0) // probe up 5%
	if got := l.Rate(); got != 945_000 {
		t.Fatalf("rate after 0%% loss = %v, want 945000", got)
	}
}

func TestControllerTakesMin(t *testing.T) {
	c := NewController(2_000_000, 100_000, 10_000_000)
	c.OnREMB(1_200_000)
	if got := c.PacingRate(); got != 1_200_000 {
		t.Fatalf("pacing = %v, want REMB min", got)
	}
	// Loss hammers the sender estimate below REMB.
	for i := 0; i < 10; i++ {
		c.OnReceiverReport(0.5)
	}
	if got := c.PacingRate(); got >= 1_200_000 {
		t.Fatalf("pacing = %v, want loss-based min", got)
	}
}

func TestRateMeter(t *testing.T) {
	m := NewRateMeter(time.Second)
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		m.Add(now, 12500) // 12500 B per 100 ms = 1 Mbps
		now += 100 * ms
	}
	got := m.BitrateBps(now)
	if got < 900_000 || got > 1_200_000 {
		t.Fatalf("rate = %v, want ~1 Mbps", got)
	}
	// After the window passes with no traffic the rate collapses.
	if got := m.BitrateBps(now + 2*time.Second); got != 0 {
		t.Fatalf("stale rate = %v, want 0", got)
	}
}

func TestPacerPriorityOrder(t *testing.T) {
	p := NewPacer[string](8_000_000)
	p.Push(Item[string]{Class: ClassVideo, Size: 1200, Payload: "v"})
	p.Push(Item[string]{Class: ClassAudio, Size: 160, Payload: "a"})
	p.Push(Item[string]{Class: ClassVideo, Size: 1200, Gain: IFramePacingGain, Payload: "i"})
	p.Push(Item[string]{Class: ClassRTX, Size: 1200, Payload: "r"})
	var order []string
	emit := func(it Item[string]) { order = append(order, it.Payload) }
	p.Drain(time.Second, emit)
	p.Drain(time.Second+10*ms, emit) // second tick pays off the budget deficit
	// Audio first, then retransmissions; video stays FIFO (the I-frame
	// packet does NOT jump ahead of the earlier video packet).
	want := []string{"a", "r", "v", "i"}
	if len(order) != 4 {
		t.Fatalf("drained %d items: %v", len(order), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPacerRateLimits(t *testing.T) {
	p := NewPacer[struct{}](1_000_000) // 125 kB/s
	for i := 0; i < 1000; i++ {
		p.Push(Item[struct{}]{Class: ClassVideo, Size: 1250})
	}
	sent := 0
	now := time.Duration(0)
	p.Drain(now, func(Item[struct{}]) { sent++ })
	// Drive the pacer for one second in 5 ms ticks.
	for i := 0; i < 200; i++ {
		now += 5 * ms
		p.Drain(now, func(Item[struct{}]) { sent++ })
	}
	// 1 Mbps / (1250 B) = 100 packets/s (+ initial burst allowance).
	if sent < 90 || sent > 130 {
		t.Fatalf("sent %d packets in 1s at 1 Mbps, want ~100", sent)
	}
}

func TestPacerIFrameGain(t *testing.T) {
	run := func(gain float64) int {
		p := NewPacer[struct{}](1_000_000)
		for i := 0; i < 1000; i++ {
			p.Push(Item[struct{}]{Class: ClassVideo, Gain: gain, Size: 1250})
		}
		sent := 0
		now := time.Duration(0)
		p.Drain(now, func(Item[struct{}]) { sent++ })
		for i := 0; i < 100; i++ {
			now += 5 * ms
			p.Drain(now, func(Item[struct{}]) { sent++ })
		}
		return sent
	}
	video := run(0)
	iframe := run(IFramePacingGain)
	ratio := float64(iframe) / float64(video)
	if ratio < 1.3 || ratio > 1.7 {
		t.Fatalf("I-frame pacing gain ratio = %v, want ~1.5", ratio)
	}
}

func TestPacerNoIdleBurstBanking(t *testing.T) {
	p := NewPacer[struct{}](8_000_000)
	p.Drain(0, func(Item[struct{}]) {})
	// Idle for a long time, then enqueue a lot: the burst must be capped.
	for i := 0; i < 100; i++ {
		p.Push(Item[struct{}]{Class: ClassVideo, Size: 1200})
	}
	sent := 0
	p.Drain(10*time.Second, func(Item[struct{}]) { sent++ })
	if sent > 15 {
		t.Fatalf("idle pacer released %d packets at once; burst cap failed", sent)
	}
}

func TestPacerQueueDelayAndDrop(t *testing.T) {
	p := NewPacer[struct{}](1_000_000)
	for i := 0; i < 100; i++ {
		p.Push(Item[struct{}]{Class: ClassVideo, Size: 1250})
	}
	// 125000 B at 125000 B/s = 1 s.
	if d := p.QueueDelay(); d < 900*ms || d > 1100*ms {
		t.Fatalf("queue delay = %v, want ~1s", d)
	}
	dropped := p.DropClass(ClassVideo, nil)
	if dropped != 125000 {
		t.Fatalf("dropped %d bytes", dropped)
	}
	if p.QueueBytes() != 0 || p.QueueLen() != 0 {
		t.Fatal("queue not empty after drop")
	}
}

// TestPacerMatchesShiftQueueModel interleaves pushes, partial drains and
// both drop calls, so drops and pushes land on queues whose head has
// advanced, and checks every emitted and dropped item against a plain
// per-class FIFO model.
func TestPacerMatchesShiftQueueModel(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPacer[int](2e6)
		var model [numClasses][]Item[int]
		modelBytes := 0
		next, now := 0, time.Duration(0)
		for step := 0; step < 500; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				it := Item[int]{Class: Class(rng.Intn(int(numClasses))), Size: 100 + rng.Intn(1400), Payload: next}
				next++
				p.Push(it)
				model[it.Class] = append(model[it.Class], it)
				modelBytes += it.Size
			case op < 8:
				now += time.Duration(rng.Intn(8)) * ms
				p.Drain(now, func(it Item[int]) {
					c := 0
					for len(model[c]) == 0 {
						c++
					}
					if want := model[c][0]; it != want {
						t.Fatalf("seed %d step %d: emitted %+v, want %+v", seed, step, it, want)
					}
					model[c] = model[c][1:]
					modelBytes -= it.Size
				})
			case op < 9:
				c, mod := Class(rng.Intn(int(numClasses))), 2+rng.Intn(3)
				var kept []Item[int]
				want := 0
				for _, it := range model[c] {
					if it.Payload%mod == 1 {
						want += it.Size
					} else {
						kept = append(kept, it)
					}
				}
				model[c] = kept
				modelBytes -= want
				if got := p.DropClassFunc(c, func(it Item[int]) bool { return it.Payload%mod == 1 }); got != want {
					t.Fatalf("seed %d step %d: DropClassFunc dropped %d bytes, want %d", seed, step, got, want)
				}
			default:
				c := Class(rng.Intn(int(numClasses)))
				i := 0
				p.DropClass(c, func(it Item[int]) {
					if it != model[c][i] {
						t.Fatalf("seed %d step %d: DropClass saw %+v, want %+v", seed, step, it, model[c][i])
					}
					i++
				})
				for _, it := range model[c] {
					modelBytes -= it.Size
				}
				if i != len(model[c]) {
					t.Fatalf("seed %d step %d: DropClass saw %d items, want %d", seed, step, i, len(model[c]))
				}
				model[c] = nil
			}
			n := 0
			for _, q := range model {
				n += len(q)
			}
			if p.QueueLen() != n || p.QueueBytes() != modelBytes {
				t.Fatalf("seed %d step %d: queue %d items / %d B, want %d / %d",
					seed, step, p.QueueLen(), p.QueueBytes(), n, modelBytes)
			}
		}
	}
}

func TestPacerMinRateFloor(t *testing.T) {
	p := NewPacer[struct{}](1_000_000)
	p.SetRate(0)
	if p.Rate() < 10_000 {
		t.Fatalf("rate floor not applied: %v", p.Rate())
	}
}
