package gcc

import "time"

// Class orders pacer traffic. Lower values drain first: audio beats
// everything (head-of-line blocking avoidance, §5.2) and retransmissions
// beat fresh video (§5.1 footnote: "retransmitted packets have a higher
// sending priority than the packets in the send queue"). Video keeps
// FIFO order — I frames are not reordered ahead of older packets (that
// would punch sequence holes at receivers); they get a pacing *gain*
// instead.
type Class int

// Pacer traffic classes, highest priority first.
const (
	ClassAudio Class = iota
	ClassRTX
	ClassVideo
	numClasses
)

// IFramePacingGain is the pacing gain applied to I-frame packets: their
// bytes are charged at 1/1.5 of their size so the large I frames drain
// the queue quickly without reordering it (§5.2 "Priority-Aware Data
// Sending", citing WebRTC's pacing gain).
const IFramePacingGain = 1.5

// Item is one queued packet. The payload type is a parameter so hot
// callers queue their packet struct directly — no interface boxing, no
// per-Push allocation (the node queues ~one item per subscriber per
// ingress packet).
type Item[T any] struct {
	Class Class
	Size  int // wire size in bytes
	// Gain is the pacing gain: the packet is charged Size/Gain against
	// the budget (0 or 1 = no gain). I frames use IFramePacingGain; GoP
	// cache primes use a larger catch-up gain so a joining subscriber
	// receives the backlog quickly without starving live packets behind
	// a slow drip.
	Gain float64
	// Payload is opaque to the pacer (the node stores the marshaled
	// packet and destination here).
	Payload T
}

// Pacer shapes fast-path sending to the rate the slow path's GCC
// controller decides. It is a pull-based token bucket: the node calls
// Drain on a timer and sends whatever the budget allows, in class order.
type Pacer[T any] struct {
	// queues[c][heads[c]:] are class c's queued items, oldest first: pop
	// advances the head instead of shifting the slice, and the space is
	// reclaimed when the queue empties (or slid down when a Push finds
	// the slice full behind a popped prefix).
	queues     [numClasses][]Item[T]
	heads      [numClasses]int
	queueBytes int

	rateBps   float64
	budget    float64 // bytes available to send now
	lastDrain time.Duration
	haveDrain bool

	// maxBurst caps accumulated budget so an idle period doesn't produce
	// a line-rate burst.
	maxBurst float64
}

// NewPacer returns a pacer at the given starting rate.
func NewPacer[T any](rateBps float64) *Pacer[T] {
	return &Pacer[T]{rateBps: rateBps, maxBurst: 12_000} // ~10 MTUs
}

// SetRate updates the pacing rate (bps).
func (p *Pacer[T]) SetRate(bps float64) {
	if bps < 10_000 {
		bps = 10_000
	}
	p.rateBps = bps
}

// Rate returns the current pacing rate.
func (p *Pacer[T]) Rate() float64 { return p.rateBps }

// Push enqueues an item.
func (p *Pacer[T]) Push(it Item[T]) {
	q, h := p.queues[it.Class], p.heads[it.Class]
	if h > 0 && len(q) == cap(q) {
		n := copy(q, q[h:])
		clear(q[n:])
		q, p.heads[it.Class] = q[:n], 0
	}
	p.queues[it.Class] = append(q, it)
	p.queueBytes += it.Size
}

// QueueBytes returns the total queued bytes (all classes).
func (p *Pacer[T]) QueueBytes() int { return p.queueBytes }

// QueueLen returns the number of queued items.
func (p *Pacer[T]) QueueLen() int {
	n := 0
	for c, q := range p.queues {
		n += len(q) - p.heads[c]
	}
	return n
}

// QueueDelay estimates how long the current queue takes to drain at the
// current rate — the signal the consumer's proactive frame dropping
// compares against its threshold (§5.2).
func (p *Pacer[T]) QueueDelay() time.Duration {
	if p.rateBps <= 0 {
		return 0
	}
	secs := float64(p.queueBytes*8) / p.rateBps
	return time.Duration(secs * float64(time.Second))
}

// DropClassFunc removes the queued items of the given class for which
// drop returns true, returning how many bytes were removed (selective
// proactive dropping). The callback owns releasing any pooled buffer
// references of items it drops.
func (p *Pacer[T]) DropClassFunc(c Class, drop func(Item[T]) bool) int {
	dropped := 0
	q := p.queues[c]
	kept := q[:0]
	for i := p.heads[c]; i < len(q); i++ {
		if drop(q[i]) {
			dropped += q[i].Size
		} else {
			kept = append(kept, q[i])
		}
	}
	clear(q[len(kept):]) // drop payload references
	p.queues[c], p.heads[c] = kept, 0
	p.queueBytes -= dropped
	return dropped
}

// DropClass removes all queued items of the given class and returns how
// many bytes were dropped (used by proactive frame dropping). onDrop,
// if non-nil, sees every dropped item — payloads that hold pooled
// buffer references release them there.
func (p *Pacer[T]) DropClass(c Class, onDrop func(Item[T])) int {
	dropped := 0
	q := p.queues[c]
	for i := p.heads[c]; i < len(q); i++ {
		dropped += q[i].Size
		if onDrop != nil {
			onDrop(q[i])
		}
		q[i] = Item[T]{} // drop payload references
	}
	p.queues[c], p.heads[c] = q[:0], 0
	p.queueBytes -= dropped
	return dropped
}

// Drain accrues budget for the elapsed time and emits items in priority
// order while budget remains. I-frame packets are charged size/1.5
// (pacing gain). A packet may drive the budget negative; the deficit is
// paid back before the next send.
func (p *Pacer[T]) Drain(now time.Duration, emit func(Item[T])) {
	if !p.haveDrain {
		p.haveDrain = true
		p.lastDrain = now
		// Allow an initial burst of one MTU so the first packet is not
		// delayed by budget accrual.
		p.budget = 1500
	}
	elapsed := now - p.lastDrain
	p.lastDrain = now
	p.budget += p.rateBps / 8 * elapsed.Seconds()
	if p.budget > p.maxBurst {
		p.budget = p.maxBurst
	}
	for p.budget > 0 {
		it, ok := p.pop()
		if !ok {
			// An empty queue must not bank budget for a later burst.
			if p.budget > 1500 {
				p.budget = 1500
			}
			return
		}
		charge := float64(it.Size)
		if it.Gain > 1 {
			charge /= it.Gain
		}
		p.budget -= charge
		emit(it)
	}
}

func (p *Pacer[T]) pop() (Item[T], bool) {
	for c := range p.queues {
		q, h := p.queues[c], p.heads[c]
		if h < len(q) {
			it := q[h]
			q[h] = Item[T]{} // drop payload references
			if h+1 == len(q) {
				p.queues[c], p.heads[c] = q[:0], 0
			} else {
				p.heads[c] = h + 1
			}
			p.queueBytes -= it.Size
			return it, true
		}
	}
	var zero Item[T]
	return zero, false
}
