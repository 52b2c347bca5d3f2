package main

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"livenet/internal/rtp"
	"livenet/internal/wire"
)

func TestPctCountsFailuresAsInf(t *testing.T) {
	xs := func() []float64 { return []float64{4, 1, 3, 2} }
	if got := pct(xs(), 0, 50); got != 2 {
		t.Fatalf("p50 without failures = %v, want 2", got)
	}
	// 4 samples + 4 failures: the median is the 4th of 8, the 5th is +inf.
	if got := pct(xs(), 4, 50); got != 4 {
		t.Fatalf("p50 with 4 failures = %v, want 4", got)
	}
	if got := pct(xs(), 5, 50); !math.IsInf(got, 1) {
		t.Fatalf("p50 with 5 failures = %v, want +Inf", got)
	}
	// One failure in 100 is exactly the 1% tail: p99 stays finite, p100 does not.
	many := make([]float64, 99)
	for i := range many {
		many[i] = float64(i)
	}
	if got := pct(append([]float64(nil), many...), 1, 99); got != 98 {
		t.Fatalf("p99 with 1 failure in 100 = %v, want 98", got)
	}
	if got := pct(append([]float64(nil), many...), 2, 99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2 failures in 101 = %v, want +Inf", got)
	}
	if got := finite(math.Inf(1)); got != math.MaxFloat64 {
		t.Fatalf("finite(+Inf) = %v", got)
	}
}

func TestMedianOf(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := medianOf(xs); got != 2.5 {
		t.Fatalf("median of 4 = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Fatal("medianOf reordered its input")
	}
	if got := medianOf([]float64{9, math.Inf(1), 1}); got != 9 {
		t.Fatalf("median with one failed window = %v, want 9", got)
	}
	if !math.IsNaN(medianOf(nil)) {
		t.Fatal("median of nothing is not NaN")
	}
}

func TestCheckPath(t *testing.T) {
	links := map[[2]int]bool{{0, 1}: true, {1, 2}: true, {2, 1}: true, {1, 3}: true, {0, 3}: true}
	reported := func(a, b int) bool { return links[[2]int{a, b}] }
	cases := []struct {
		name string
		path []int
		want error
	}{
		{"valid", []int{0, 1, 3}, nil},
		{"direct", []int{0, 3}, nil},
		{"empty", nil, errNoPath},
		{"wrong producer", []int{1, 3}, errEndpoints},
		{"wrong consumer", []int{0, 1, 2}, errEndpoints},
		{"loop", []int{0, 1, 2, 1, 3}, errLoop},
		{"unreported link", []int{0, 2, 1, 3}, errUnreported},
	}
	for _, c := range cases {
		err := checkPath(c.path, 0, 3, reported)
		if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
			t.Errorf("%s: checkPath(%v) = %v, want %v", c.name, c.path, err, c.want)
		}
	}
}

// datagram builds what a consumer sends a viewer: the overlay-ID prefix
// and a framed RTP packet.
func datagram(from int, ssrc uint32, seq uint16, payload []byte) []byte {
	pkt := rtp.Packet{PayloadType: rtp.PayloadVideo, SequenceNumber: seq, SSRC: ssrc, Payload: payload, HasDelayExt: true}
	b := binary.BigEndian.AppendUint32(nil, uint32(from))
	return wire.FrameRTP(b, 7, pkt.Marshal(nil))
}

func TestCheckRelayDatagram(t *testing.T) {
	sent := &sentPkt{payload: []byte("frame header + seeded bytes"), expect: 2}
	lookup := func(ssrc uint32, seq uint16) *sentPkt {
		if ssrc == relaySIDBase && seq == 9 {
			return sent
		}
		return nil
	}
	if p, err := checkRelayDatagram(datagram(relayConsumer, relaySIDBase, 9, sent.payload), relayConsumer, lookup); err != nil || p != sent {
		t.Fatalf("valid datagram: %v, %v", p, err)
	}
	corrupt := append([]byte(nil), sent.payload...)
	corrupt[3] ^= 0xff
	cases := []struct {
		name string
		dg   []byte
		want error
	}{
		{"corrupted payload", datagram(relayConsumer, relaySIDBase, 9, corrupt), errPayload},
		{"truncated payload", datagram(relayConsumer, relaySIDBase, 9, sent.payload[:5]), errPayload},
		{"never sent", datagram(relayConsumer, relaySIDBase, 10, sent.payload), errNotSent},
		{"wrong endpoint", datagram(relayRelay, relaySIDBase, 9, sent.payload), errWrongSender},
		{"short", []byte{0, 0}, errShort},
	}
	for _, c := range cases {
		if _, err := checkRelayDatagram(c.dg, relayConsumer, lookup); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := checkRelayDatagram(append(datagram(relayConsumer, 0, 0, nil)[:4], 0xee), relayConsumer, lookup); err == nil {
		t.Error("undecodable datagram accepted")
	}
	if err := checkCopies(2, 2); err != nil {
		t.Errorf("one copy per viewer rejected: %v", err)
	}
	if err := checkCopies(3, 2); !errors.Is(err, errDuplicate) {
		t.Errorf("duplicate copy: got %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "rpc", Parent: -1, Start: 0, End: 100},
		{Name: "lookup", Parent: 0, Start: 10, End: 30},
		{Name: "lookup", Parent: 0, Start: 20, End: 50},  // overlaps the first: counted once
		{Name: "lookup", Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "inner", Parent: 1, Start: 12, End: 18},
		{Name: "other", Parent: -1, Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerSelfByName(t *testing.T) {
	tr := newTracer()
	rpc := tr.add("udprun.rpc", 1, -1, 0, 1000, 1, true)
	lk := tr.add("brain.lookup", 1, -1, 200, 700, 1, true)
	tr.setParent(lk, rpc)
	tr.add("udprun.send", 5, -1, 0, 10, 16, false) // aggregate only
	if got := tr.selfByName("udprun.rpc"); len(got) != 1 || got[0] != 500 {
		t.Fatalf("rpc self time = %v, want [500]", got)
	}
	if s := tr.stat("udprun.send"); s.n != 1 || s.work != 16 || s.sumNs != 10 {
		t.Fatalf("send aggregate = %+v", s)
	}
}

func TestRelayWindowStatsCountLossAsInf(t *testing.T) {
	w := &window{startNs: 0, endNs: 1e9}
	w.pkts = []*sentPkt{{expect: 3}, {expect: 1}}
	w.lat = []float64{5, 7, 9} // one of the four expected copies never arrived
	st := w.stats()
	if st.expected != 4 || st.inTime != 3 || st.lossRatio != 0.25 {
		t.Fatalf("stats = %+v", st)
	}
	if !math.IsInf(st.p99, 1) || st.p50 != 7 {
		t.Fatalf("p50 %v p99 %v, want 7 and +Inf", st.p50, st.p99)
	}
	if st.pass() {
		t.Fatal("a window with 25% loss passed")
	}
}

func TestRxStampIsArrivalTime(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skip("no loopback UDP:", err)
	}
	defer rx.Close()
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	t0 := time.Now()
	r, err := newStampReader(rx, t0)
	if err != nil {
		t.Fatal(err)
	}
	// The kernel turns stamping on for the machine a moment after the
	// first socket asks; until then it stamps at read time.
	time.Sleep(100 * time.Millisecond)
	sent := int64(time.Since(t0))
	if _, err := tx.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// Read well after arrival: the stamp must still say when it arrived.
	time.Sleep(50 * time.Millisecond)
	n, at, err := r.read(make([]byte, 16))
	read := int64(time.Since(t0))
	if err != nil || n != 1 {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	// Wall and monotonic clocks agree to well under a millisecond here.
	if at < sent-int64(time.Millisecond) || at > read-40*int64(time.Millisecond) {
		t.Fatalf("stamp %v not between send %v and read %v minus the wait", time.Duration(at), time.Duration(sent), time.Duration(read))
	}
}
