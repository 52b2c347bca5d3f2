package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"livenet/internal/rtp"
	"livenet/internal/wire"
)

// sentPkt is what the generator remembers about one RTP packet it sent:
// enough to check every viewer copy and to time it from its frame's due
// time.
type sentPkt struct {
	due     int64  // ns on the generator clock when the frame was due
	payload []byte // RTP payload as sent (frame header + seeded bytes)
	expect  int32  // viewers attached to the stream when it was sent
	win     *window
	got     int32 // copies received (receiver goroutine only)
}

var (
	errShort       = errors.New("datagram shorter than the overlay-ID prefix")
	errWrongSender = errors.New("datagram not from the consumer node")
	errNotSent     = errors.New("packet was never sent")
	errPayload     = errors.New("payload differs from the one sent")
	errDuplicate   = errors.New("more copies than attached viewers")
)

// checkRelayDatagram validates one datagram received on the viewer
// socket: it must carry the consumer's overlay-ID prefix, decode as a
// framed RTP packet, name a packet the generator sent, and carry exactly
// the payload bytes that were sent. lookup resolves (ssrc, seq) to the
// sent packet or nil.
func checkRelayDatagram(dg []byte, wantFrom int, lookup func(ssrc uint32, seq uint16) *sentPkt) (*sentPkt, error) {
	if len(dg) < 4 {
		return nil, errShort
	}
	if from := int(binary.BigEndian.Uint32(dg)); from != wantFrom {
		return nil, fmt.Errorf("%w: from %d", errWrongSender, from)
	}
	_, rtpData, err := wire.UnframeRTP(dg[4:])
	if err != nil {
		return nil, fmt.Errorf("decode frame: %w", err)
	}
	var pkt rtp.Packet
	if err := pkt.Unmarshal(rtpData); err != nil {
		return nil, fmt.Errorf("decode rtp: %w", err)
	}
	p := lookup(pkt.SSRC, pkt.SequenceNumber)
	if p == nil {
		return nil, fmt.Errorf("%w: ssrc %d seq %d", errNotSent, pkt.SSRC, pkt.SequenceNumber)
	}
	if !bytes.Equal(pkt.Payload, p.payload) {
		return nil, fmt.Errorf("%w: ssrc %d seq %d", errPayload, pkt.SSRC, pkt.SequenceNumber)
	}
	return p, nil
}

// checkCopies enforces at-most-once delivery per viewer in aggregate:
// every viewer sits behind one socket, so a packet may arrive at most
// once for each viewer attached to its stream.
func checkCopies(got, viewers int32) error {
	if got > viewers {
		return fmt.Errorf("%w: %d copies for %d viewers", errDuplicate, got, viewers)
	}
	return nil
}

var (
	errNoPath     = errors.New("no path returned")
	errEndpoints  = errors.New("path does not run from producer to consumer")
	errLoop       = errors.New("path revisits a node")
	errUnreported = errors.New("path uses a link that was never reported")
)

// checkPath validates one path returned for (producer, consumer): it
// must start at the producer, end at the consumer, visit no node twice,
// and use only links the generator reported to Global Discovery.
func checkPath(path []int, producer, consumer int, reported func(from, to int) bool) error {
	if len(path) == 0 {
		return errNoPath
	}
	if path[0] != producer || path[len(path)-1] != consumer {
		return fmt.Errorf("%w: %v for %d->%d", errEndpoints, path, producer, consumer)
	}
	seen := make(map[int]bool, len(path))
	for i, h := range path {
		if seen[h] {
			return fmt.Errorf("%w: %v", errLoop, path)
		}
		seen[h] = true
		if i > 0 && !reported(path[i-1], h) {
			return fmt.Errorf("%w: %d->%d in %v", errUnreported, path[i-1], h, path)
		}
	}
	return nil
}

// errLog keeps a count of validation failures and the first few
// messages.
type errLog struct {
	n    int64
	msgs []string
}

func (l *errLog) add(err error) {
	l.n++
	if len(l.msgs) < 5 {
		l.msgs = append(l.msgs, err.Error())
	}
}
