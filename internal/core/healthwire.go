package core

import (
	"encoding/binary"
	"fmt"
)

// Health-plane control packets. The self-healing collectives exchange two
// packet types out of band of the data path: a Heartbeat carries one rank's
// per-operation verdict (whether its attempt failed) to the recovery
// coordinator, and a RouteUpdate carries the coordinator's decision back —
// retry or not. Every rank derives the retried view on its own, so neither
// packet carries one. Like the chunk control packets, both have a fixed
// little-endian wire encoding with a leading magic byte and a strict
// decoder: a truncated packet, unknown flag bits, or an impossible field
// fails loudly instead of silently steering recovery the wrong way.

// Health control-packet magics (first wire byte).
const (
	heartbeatMagic   = 0xB7
	routeUpdateMagic = 0xD7
)

// Heartbeat flag bits (second wire byte).
const (
	// hbFlagFailed: the sender's attempt of the operation failed (peer
	// failure, revocation, or delivery exhaustion) — a retry vote.
	hbFlagFailed = 1 << 0
)

// RouteUpdate flag bits (second wire byte).
const (
	// ruFlagRetry: at least one member's attempt failed — rebuild the
	// route and rerun the operation on the surviving view.
	ruFlagRetry = 1 << 0
)

// HeartbeatSize and RouteUpdateSize are the fixed serialized sizes of the
// two packets.
const (
	HeartbeatSize   = 18
	RouteUpdateSize = 14
)

// MaxRouteRanks bounds the rank ids a well-formed sender can produce;
// decoders reject anything larger.
const MaxRouteRanks = 4096

// Heartbeat is one rank's per-operation report to the recovery
// coordinator: identity, the (epoch, op) it reports on, and whether its
// attempt failed.
type Heartbeat struct {
	// Src is the reporting rank.
	Src int
	// Epoch is the sender's recovery epoch; Op the collective-operation
	// index the report covers. Together they bind the report to exactly
	// one attempt, so a stale heartbeat can never vote on a later one.
	Epoch int
	Op    uint64
	// Failed votes retry.
	Failed bool
}

// EncodeHeartbeat serializes the heartbeat (little-endian).
func (h Heartbeat) EncodeHeartbeat() []byte {
	var flags byte
	if h.Failed {
		flags |= hbFlagFailed
	}
	buf := make([]byte, 0, HeartbeatSize)
	buf = append(buf, heartbeatMagic, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Src))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Epoch))
	buf = binary.LittleEndian.AppendUint64(buf, h.Op)
	return buf
}

// DecodeHeartbeat parses a heartbeat serialized by EncodeHeartbeat,
// rejecting truncation, a wrong magic, unknown flag bits, or field values a
// well-formed sender could not have produced.
func DecodeHeartbeat(buf []byte) (Heartbeat, error) {
	if len(buf) < HeartbeatSize {
		return Heartbeat{}, fmt.Errorf("core: heartbeat too short (%d bytes)", len(buf))
	}
	if buf[0] != heartbeatMagic {
		return Heartbeat{}, fmt.Errorf("core: bad heartbeat magic %#x", buf[0])
	}
	flags := buf[1]
	if flags&^hbFlagFailed != 0 {
		return Heartbeat{}, fmt.Errorf("core: unknown heartbeat flags %#x", flags)
	}
	h := Heartbeat{
		Src:    int(binary.LittleEndian.Uint32(buf[2:])),
		Epoch:  int(binary.LittleEndian.Uint32(buf[6:])),
		Op:     binary.LittleEndian.Uint64(buf[10:]),
		Failed: flags&hbFlagFailed != 0,
	}
	if h.Src < 0 || h.Src >= MaxRouteRanks {
		return Heartbeat{}, fmt.Errorf("core: corrupt heartbeat (src=%d)", h.Src)
	}
	if h.Epoch < 0 || h.Epoch >= 1<<16 {
		return Heartbeat{}, fmt.Errorf("core: corrupt heartbeat (epoch=%d)", h.Epoch)
	}
	return h, nil
}

// RouteUpdate is the recovery coordinator's per-operation decision:
// whether the operation must be retried.
type RouteUpdate struct {
	// Epoch / Op bind the decision to one attempt, mirroring Heartbeat.
	Epoch int
	Op    uint64
	// Retry reports the coordinator's OR over member failure votes.
	Retry bool
}

// EncodeRouteUpdate serializes the route update (little-endian).
func (u RouteUpdate) EncodeRouteUpdate() []byte {
	var flags byte
	if u.Retry {
		flags |= ruFlagRetry
	}
	buf := make([]byte, 0, RouteUpdateSize)
	buf = append(buf, routeUpdateMagic, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(u.Epoch))
	buf = binary.LittleEndian.AppendUint64(buf, u.Op)
	return buf
}

// DecodeRouteUpdate parses a route update serialized by EncodeRouteUpdate
// with the same strictness as DecodeHeartbeat.
func DecodeRouteUpdate(buf []byte) (RouteUpdate, error) {
	if len(buf) < RouteUpdateSize {
		return RouteUpdate{}, fmt.Errorf("core: route update too short (%d bytes)", len(buf))
	}
	if buf[0] != routeUpdateMagic {
		return RouteUpdate{}, fmt.Errorf("core: bad route update magic %#x", buf[0])
	}
	flags := buf[1]
	if flags&^byte(ruFlagRetry) != 0 {
		return RouteUpdate{}, fmt.Errorf("core: unknown route update flags %#x", flags)
	}
	u := RouteUpdate{
		Epoch: int(binary.LittleEndian.Uint32(buf[2:])),
		Op:    binary.LittleEndian.Uint64(buf[6:]),
		Retry: flags&ruFlagRetry != 0,
	}
	if u.Epoch >= 1<<16 {
		return RouteUpdate{}, fmt.Errorf("core: corrupt route update (epoch=%d)", u.Epoch)
	}
	return u, nil
}
