package main

import (
	"encoding/binary"
	"sync"
	"time"

	"livenet/internal/brain"
	"livenet/internal/udprun"
	"livenet/internal/wire"
)

// rtpID identifies the media packet in a framed MsgRTP datagram as
// ssrc<<16|seq, plus one so that 0 means "not a media packet".
func rtpID(frame []byte) uint64 {
	const seqOff, ssrcOff = wire.RTPHeaderLen + 2, wire.RTPHeaderLen + 8
	if len(frame) < ssrcOff+4 || frame[0] != wire.MsgRTP {
		return 0
	}
	ssrc := binary.BigEndian.Uint32(frame[ssrcOff:])
	seq := binary.BigEndian.Uint16(frame[seqOff:])
	return (uint64(ssrc)<<16 | uint64(seq)) + 1
}

// sampled keeps one media packet in 16 in the span log (the aggregates
// count every call).
func sampled(id uint64) bool { return id&15 == 1 }

// tracedHandler wraps an endpoint delivery handler in a span named name.
// onIngress, when set, sees each media packet's id and arrival time.
func tracedHandler(tr *Tracer, name string, h func(int, []byte), onIngress func(id uint64, at int64)) func(int, []byte) {
	return func(from int, data []byte) {
		id := rtpID(data)
		start := tr.now()
		h(from, data)
		tr.add(name, id, -1, start, tr.now(), 1, true)
		if onIngress != nil && id != 0 {
			onIngress(id, start)
		}
	}
}

// tracedSender wraps a udprun endpoint as the node's transport, timing
// every submit as a udprun.send span. It implements node.Sender and
// node.BatchSender, so the node keeps its batched path. onSend sees each media datagram's id and
// submit time.
type tracedSender struct {
	ep     *udprun.Endpoint
	tr     *Tracer
	onSend func(id uint64, at int64)
}

func (s *tracedSender) note(id uint64, at int64) {
	if s.onSend != nil && id != 0 {
		s.onSend(id, at)
	}
}

func (s *tracedSender) Send(from, to int, data []byte) error {
	start := s.tr.now()
	err := s.ep.Send(from, to, data)
	id := rtpID(data)
	s.tr.add("udprun.send", id, -1, start, s.tr.now(), 1, sampled(id))
	s.note(id, start)
	return err
}

func (s *tracedSender) SendBatch(from, to int, vecs []wire.Vec) error {
	start := s.tr.now()
	err := s.ep.SendBatch(from, to, vecs)
	end := s.tr.now()
	var id uint64
	if len(vecs) > 0 {
		id = rtpID(vecs[0].Hdr)
	}
	s.tr.add("udprun.send", id, -1, start, end, int64(len(vecs)), sampled(id))
	for _, v := range vecs {
		s.note(rtpID(v.Hdr), start)
	}
	return err
}

// lookupKey names one Path Decision query.
type lookupKey struct {
	sid      uint32
	consumer int
}

// tracedBrain wraps the Brain behind udprun.BrainServer: Lookup and
// ReportLink calls become spans, so the time a request waits for the
// Brain's lock is inside the span. Lookup spans queue per (stream,
// consumer) until the RPC that caused them claims them as children.
type tracedBrain struct {
	*brain.Brain
	tr *Tracer

	mu      sync.Mutex
	pending map[lookupKey][]int32
}

var _ udprun.BrainAPI = (*tracedBrain)(nil)

func newTracedBrain(b *brain.Brain, tr *Tracer) *tracedBrain {
	return &tracedBrain{Brain: b, tr: tr, pending: make(map[lookupKey][]int32)}
}

func (b *tracedBrain) Lookup(sid uint32, consumer int) ([][]int, error) {
	start := b.tr.now()
	paths, err := b.Brain.Lookup(sid, consumer)
	idx := b.tr.add("brain.lookup", uint64(sid), -1, start, b.tr.now(), 1, true)
	k := lookupKey{sid, consumer}
	b.mu.Lock()
	b.pending[k] = append(b.pending[k], idx)
	b.mu.Unlock()
	return paths, err
}

func (b *tracedBrain) ReportLink(from, to int, rtt time.Duration, loss, util float64) {
	start := b.tr.now()
	b.Brain.ReportLink(from, to, rtt, loss, util)
	b.tr.add("brain.report", 0, -1, start, b.tr.now(), 1, false)
}

// claim pops the oldest lookup span for k (or -1). The server answers
// requests in arrival order, so the oldest span belongs to the oldest
// outstanding RPC for the same key.
func (b *tracedBrain) claim(k lookupKey) int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.pending[k]
	if len(q) == 0 {
		return -1
	}
	b.pending[k] = q[1:]
	return q[0]
}

// rpcDone records an RPC span for token and adopts the Brain's lookup
// span for k as its child, so the RPC's self time is its wait outside
// the Brain.
func (b *tracedBrain) rpcDone(token uint64, k lookupKey, start, end int64) {
	idx := b.tr.add("udprun.rpc", token, -1, start, end, 1, true)
	if child := b.claim(k); child >= 0 && idx >= 0 {
		b.tr.setParent(child, idx)
	}
}
