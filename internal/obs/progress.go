package obs

import (
	"sync/atomic"
	"time"
)

// Progress is the mutable state behind the /progress endpoint: what the
// engine is doing right now. Writers are the instrumented packages (the
// adversary sets the phase, the exploration engine reports levels); the
// reader is whoever polls /progress, from another goroutine, so every field
// is atomic and Snapshot never blocks the engine.
type Progress struct {
	start time.Time
	phase atomic.Value // string

	depth        atomic.Int64 // BFS depth of the exploration in flight
	frontier     atomic.Int64 // its current level size
	prevFrontier atomic.Int64 // the level before, for the growth ratio
	peakFrontier atomic.Int64
	configs      atomic.Int64 // configurations visited, cumulative
	spans        atomic.Int64 // spans opened so far
	lastCkpt     atomic.Int64 // unix nanos of the last checkpoint save, 0 = none
}

// NewProgress returns a progress tracker whose clock starts now.
func NewProgress() *Progress {
	p := &Progress{start: time.Now()}
	p.phase.Store("")
	return p
}

// SetPhase records the phase label shown by /progress. Safe on nil.
func (p *Progress) SetPhase(phase string) {
	if p == nil {
		return
	}
	p.phase.Store(phase)
}

// Level records one completed BFS level of the exploration in flight.
func (p *Progress) Level(depth, frontier, configs int) {
	if p == nil {
		return
	}
	p.depth.Store(int64(depth))
	p.prevFrontier.Store(p.frontier.Swap(int64(frontier)))
	raiseTo(&p.peakFrontier, int64(frontier))
	p.configs.Add(int64(configs))
}

// Checkpoint records that a checkpoint was saved now; /progress reports its
// age so an operator can tell a healthy run from one whose persistence has
// silently stalled. Safe on nil.
func (p *Progress) Checkpoint() {
	if p == nil {
		return
	}
	p.lastCkpt.Store(time.Now().UnixNano())
}

// ShardHealth is one shard slice's liveness row on /progress: who leases
// it, the run's barrier level, how stale the lease is (-1 when unowned),
// and how many times the slice has been reassigned after a crash or
// stall. Populated only by distributed runs.
type ShardHealth struct {
	Slice       int     `json:"slice"`
	Worker      string  `json:"worker,omitempty"`
	Level       int     `json:"level"`
	LeaseAgeSec float64 `json:"lease_age_sec"`
	Reassigns   int     `json:"reassigns"`
}

// raiseTo raises the atomic to v if larger (a lock-free high-water mark).
func raiseTo(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot is the JSON document served by /progress.
type Snapshot struct {
	// Phase is the engine's current proof stage ("" before the first).
	Phase string `json:"phase"`
	// ElapsedSec is wall-clock time since the scope was created.
	ElapsedSec float64 `json:"elapsed_sec"`
	// FrontierDepth and FrontierSize describe the BFS level most recently
	// completed by the exploration in flight.
	FrontierDepth int64 `json:"frontier_depth"`
	FrontierSize  int64 `json:"frontier_size"`
	PeakFrontier  int64 `json:"peak_frontier"`
	// Configs is the cumulative number of configurations visited across
	// every exploration of the run.
	Configs       int64   `json:"configs"`
	ConfigsPerSec float64 `json:"configs_per_sec"`
	// Spans counts trace spans opened so far.
	Spans int64 `json:"spans"`
	// EtaSec estimates the time to exhaust the exploration in flight from
	// its level-growth ratio: when levels are shrinking geometrically
	// (ratio r < 1) the remaining work is about frontier*r/(1-r)
	// configurations. -1 means no estimate (growing or too early).
	EtaSec float64 `json:"eta_sec"`
	// CheckpointAgeSec is the time since the last checkpoint save, -1 when
	// the run has never checkpointed (or checkpointing is off).
	CheckpointAgeSec float64 `json:"checkpoint_age_sec"`
}

// Snapshot returns the current progress. Safe on nil (zero snapshot).
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{EtaSec: -1, CheckpointAgeSec: -1}
	}
	elapsed := time.Since(p.start).Seconds()
	s := Snapshot{
		Phase:            p.phase.Load().(string),
		ElapsedSec:       elapsed,
		FrontierDepth:    p.depth.Load(),
		FrontierSize:     p.frontier.Load(),
		PeakFrontier:     p.peakFrontier.Load(),
		Configs:          p.configs.Load(),
		Spans:            p.spans.Load(),
		EtaSec:           -1,
		CheckpointAgeSec: -1,
	}
	if ck := p.lastCkpt.Load(); ck != 0 {
		s.CheckpointAgeSec = time.Since(time.Unix(0, ck)).Seconds()
	}
	if elapsed > 0 {
		s.ConfigsPerSec = float64(s.Configs) / elapsed
	}
	prev := p.prevFrontier.Load()
	if prev > 0 && s.FrontierSize > 0 && s.FrontierSize < prev && s.ConfigsPerSec > 0 {
		r := float64(s.FrontierSize) / float64(prev)
		remaining := float64(s.FrontierSize) * r / (1 - r)
		s.EtaSec = remaining / s.ConfigsPerSec
	}
	return s
}
