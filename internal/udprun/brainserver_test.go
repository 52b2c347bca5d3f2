package udprun

import (
	"testing"
	"time"

	"livenet/internal/brain"
	"livenet/internal/brainfed"
	"livenet/internal/telemetry"
	"livenet/internal/wire"
)

// TestBrainServerRejectsOutOfRangeNodes sends the Brain one datagram per
// out-of-range node ID the wire format can carry (uint16, so up to
// 65535 against a 4-node fleet), for both Brain topologies the server
// fronts. None may crash the Brain: bad lookups are answered OK=false,
// bad reports and registrations are dropped and counted in
// brain.rejected, and a valid lookup is still answered afterwards.
func TestBrainServerRejectsOutOfRangeNodes(t *testing.T) {
	const n = 4
	mk := map[string]func(reg *telemetry.Registry) BrainAPI{
		"monolith": func(reg *telemetry.Registry) BrainAPI {
			return brain.New(brain.Config{N: n, Telemetry: reg})
		},
		"federation": func(reg *telemetry.Registry) BrainAPI {
			return brainfed.New(brainfed.Config{
				Brain:     brain.Config{N: n, Telemetry: reg},
				Partition: brainfed.Contiguous(n, 2, []int{1, 2}),
			})
		},
	}
	for name, build := range mk {
		t.Run(name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			b := build(reg)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j {
						b.ReportLink(i, j, 10*time.Millisecond, 0, 0.1)
					}
				}
			}
			b.RegisterStream(77, 0)
			srv, err := NewBrainServer(b, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ep, err := Listen(2, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			if err := ep.AddPeer(BrainID, srv.Addr()); err != nil {
				t.Fatal(err)
			}
			resps := make(chan wire.PathResponse, 8)
			ep.Serve(func(_ int, data []byte) {
				var r wire.PathResponse
				if r.Unmarshal(data) == nil {
					resps <- r
				}
			})
			send := func(m interface{ Marshal([]byte) []byte }) {
				if err := ep.Send(2, BrainID, m.Marshal(nil)); err != nil {
					t.Fatal(err)
				}
			}
			lookup := func(sid uint32, consumer uint16, tok uint32) wire.PathResponse {
				send(&wire.PathRequest{StreamID: sid, Consumer: consumer, Token: tok})
				select {
				case r := <-resps:
					if r.Token != tok {
						t.Fatalf("response token %d, want %d", r.Token, tok)
					}
					return r
				case <-time.After(2 * time.Second):
					t.Fatalf("lookup %d timed out: the Brain stopped answering", tok)
				}
				return wire.PathResponse{}
			}

			if r := lookup(77, 65535, 1); r.OK || len(r.Paths) != 0 {
				t.Fatalf("out-of-range consumer answered %+v, want OK=false", r)
			}
			send(&wire.NodeReport{From: 65535, To: 1, RTTMicros: 1000, NodeUtil: 100})
			send(&wire.NodeReport{From: 0, To: n, RTTMicros: 1000})
			send(&wire.RegisterStream{StreamID: 78, Producer: 65535})
			// The bad registration was dropped, so its stream is unknown.
			if r := lookup(78, 1, 2); r.OK {
				t.Fatalf("stream with out-of-range producer answered %+v", r)
			}
			r := lookup(77, 3, 3)
			if !r.OK || len(r.Paths) == 0 {
				t.Fatalf("valid lookup after bad datagrams: %+v", r)
			}
			if p := r.Paths[0]; p[0] != 0 || p[len(p)-1] != 3 {
				t.Fatalf("path %v does not run 0 -> 3", p)
			}
			// One lookup, the first report's link and node load, the
			// second report's link (its reporter's node load is valid) and
			// one registration. The server handles control datagrams in
			// arrival order, so all of them preceded the last answer.
			if got := reg.Counter("brain.rejected").Load(); got != 5 {
				t.Fatalf("brain.rejected = %d, want 5", got)
			}
		})
	}
}
