package core

import "slices"

// PipelineStats snapshots the chunk-granular transport reliability
// counters of one engine (or, via Add, of a whole job). Everything here is
// derived from seeded fault decisions and program-order virtual-clock
// arithmetic, so the numbers are identical across runs, host schedules,
// and codec worker-pool sizes — ombrun prints them on stdout.
type PipelineStats struct {
	// Chunks counts chunk-granularity pipeline steps (chunked rendezvous
	// sends plus pipelined ring-allreduce chunks); RelayChunks counts
	// segments of relayed wire payloads moved by the chunked relay path.
	Chunks      int
	RelayChunks int
	// Retransmits counts chunk retransmission attempts (each a selective
	// NACK or retransmission-timeout recovery of exactly one chunk);
	// RetransmitBytes totals the wire bytes those retransmissions re-sent.
	Retransmits     int
	RetransmitBytes int64
	// CreditStalls counts chunk transfers whose start waited on the
	// credit window — staging-pool backpressure instead of the old
	// wholesale fallback to the uncompressed path.
	CreditStalls int
	// WindowShrinks counts credit-window halvings under repeated loss
	// (degrade ladder step 2).
	WindowShrinks int
	// DegradeEvents counts peers demoted to the blocking whole-message
	// path after consecutive lossy chunk streams (degrade ladder step 3).
	DegradeEvents int
	// BypassSmall counts rendezvous messages that skipped chunking
	// because they were under twice the chunk size; BypassDegraded counts
	// messages that skipped it because the peer was degraded.
	BypassSmall    int
	BypassDegraded int
}

// Add accumulates another snapshot (for job-wide totals).
func (s *PipelineStats) Add(o PipelineStats) {
	s.Chunks += o.Chunks
	s.RelayChunks += o.RelayChunks
	s.Retransmits += o.Retransmits
	s.RetransmitBytes += o.RetransmitBytes
	s.CreditStalls += o.CreditStalls
	s.WindowShrinks += o.WindowShrinks
	s.DegradeEvents += o.DegradeEvents
	s.BypassSmall += o.BypassSmall
	s.BypassDegraded += o.BypassDegraded
}

// PipeSnapshot returns the engine's chunk-reliability counters. Chunks
// mirrors the PipelinedChunks activity counter so one snapshot carries the
// whole pipelined story.
func (e *Engine) PipeSnapshot() PipelineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.pipe
	s.Chunks = e.PipelinedChunks
	return s
}

// NotePipeRelayChunks records n chunked-relay segments sent.
func (e *Engine) NotePipeRelayChunks(n int) {
	e.mu.Lock()
	e.pipe.RelayChunks += n
	e.mu.Unlock()
}

// NotePipeTransfer records one pipelined message's transfer-time
// reliability activity: chunk retransmissions (with their wire bytes),
// credit stalls, and window shrinks. Called once per message by the
// transport, under the sender's engine.
func (e *Engine) NotePipeTransfer(retransmits int, retransmitBytes int64, creditStalls, windowShrinks int) {
	e.mu.Lock()
	e.pipe.Retransmits += retransmits
	e.pipe.RetransmitBytes += retransmitBytes
	e.pipe.CreditStalls += creditStalls
	e.pipe.WindowShrinks += windowShrinks
	e.mu.Unlock()
}

// NotePipeDegrade records a peer demoted to the blocking whole-message
// path (degrade ladder step 3).
func (e *Engine) NotePipeDegrade() {
	e.mu.Lock()
	e.pipe.DegradeEvents++
	e.mu.Unlock()
}

// NotePipeBypass records a rendezvous message that skipped the chunked
// path: small=true for an under-2x-chunk message, small=false for a
// degraded peer.
func (e *Engine) NotePipeBypass(small bool) {
	e.mu.Lock()
	if small {
		e.pipe.BypassSmall++
	} else {
		e.pipe.BypassDegraded++
	}
	e.mu.Unlock()
}

// ChunkPicks is the form chooser's histogram: ChunkPicks()[k] counts the
// sends SendForm gave form k ([0]: uncompressed, [1]: whole and
// compressed, k >= 2: cut into k chunks).
func (e *Engine) ChunkPicks() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.picks)
}

// notePickLocked counts one of the chooser's picks.
func (e *Engine) notePickLocked(k int) {
	for len(e.picks) <= k {
		e.picks = append(e.picks, 0)
	}
	e.picks[k]++
}
