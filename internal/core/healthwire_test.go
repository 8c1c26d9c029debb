package core

import (
	"bytes"
	"testing"
)

func TestHeartbeatRoundTrip(t *testing.T) {
	h := Heartbeat{Src: 5, Epoch: 2, Op: 31, Failed: true}
	roundTripEveryField(t, h, Heartbeat.EncodeHeartbeat, DecodeHeartbeat, func(Heartbeat) int { return HeartbeatSize })
}

func TestHeartbeatDecodeRejects(t *testing.T) {
	good := Heartbeat{Src: 1, Epoch: 0, Op: 7}.EncodeHeartbeat()
	cases := map[string][]byte{
		"truncated":     good[:HeartbeatSize-1],
		"bad magic":     append([]byte{0x00}, good[1:]...),
		"unknown flags": append([]byte{good[0], 0x80}, good[2:]...),
	}
	for name, buf := range cases {
		if _, err := DecodeHeartbeat(buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	big := Heartbeat{Src: MaxRouteRanks, Op: 1}.EncodeHeartbeat()
	if _, err := DecodeHeartbeat(big); err == nil {
		t.Error("out-of-range src accepted")
	}
}

func TestRouteUpdateRoundTrip(t *testing.T) {
	u := RouteUpdate{Epoch: 3, Op: 12, Retry: true}
	roundTripEveryField(t, u, RouteUpdate.EncodeRouteUpdate, DecodeRouteUpdate, func(RouteUpdate) int { return RouteUpdateSize })
}

func TestRouteUpdateDecodeRejects(t *testing.T) {
	good := RouteUpdate{Epoch: 1, Op: 4, Retry: true}.EncodeRouteUpdate()
	if _, err := DecodeRouteUpdate(good[:len(good)-1]); err == nil {
		t.Error("truncated update accepted")
	}
	if _, err := DecodeRouteUpdate(append([]byte{0x00}, good[1:]...)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeRouteUpdate(append([]byte{good[0], 0xf0}, good[2:]...)); err == nil {
		t.Error("unknown flags accepted")
	}
}

// FuzzDecodeHealthControl hardens both health-plane decoders: any accepted
// packet must re-encode byte-identically (no silent canonicalization a spoofed
// packet could hide in). Seeds are live-captured from a self-healing chaos
// run — the heartbeats and route updates the verdict round actually
// exchanges when a fated rank dies mid-allreduce — plus edge shapes.
func FuzzDecodeHealthControl(f *testing.F) {
	f.Add(Heartbeat{Src: 2, Epoch: 0, Op: 3, Failed: true}.EncodeHeartbeat())
	f.Add(Heartbeat{Src: 7, Epoch: 1, Op: 3}.EncodeHeartbeat())
	f.Add(Heartbeat{Src: 0, Epoch: 0, Op: 0}.EncodeHeartbeat())
	f.Add(RouteUpdate{Epoch: 1, Op: 3, Retry: true}.EncodeRouteUpdate())
	f.Add(RouteUpdate{Epoch: 0, Op: 11}.EncodeRouteUpdate())
	f.Add([]byte{})
	f.Add(make([]byte, HeartbeatSize))
	f.Fuzz(func(t *testing.T, buf []byte) {
		if h, err := DecodeHeartbeat(buf); err == nil {
			wire := h.EncodeHeartbeat()
			if !bytes.Equal(wire, buf[:HeartbeatSize]) {
				t.Fatalf("accepted heartbeat did not re-encode identically:\n in: %x\nout: %x", buf[:HeartbeatSize], wire)
			}
		}
		if u, err := DecodeRouteUpdate(buf); err == nil {
			wire := u.EncodeRouteUpdate()
			if !bytes.Equal(wire, buf[:len(wire)]) {
				t.Fatalf("accepted route update did not re-encode identically:\n in: %x\nout: %x", buf[:len(wire)], wire)
			}
		}
	})
}
