// Package splitting implements fixed-effort multilevel splitting for
// rare-event estimation on the diagnostic cluster: the probability that a
// node suffering independent per-round transient faults escalates its
// penalty counter all the way to (wrong) isolation is far below naive
// Monte-Carlo reach at certification-relevant parameters, but factors into
// per-level conditional probabilities — penalty thresholds are the
// importance function the protocol already computes — each large enough to
// estimate with modest effort.
//
// The estimator is fixed effort (n trials per level): level 0 trials start
// from a warmed-up fault-free cluster state; a trial succeeds when the
// observer's penalty for the target reaches the level's threshold, at which
// point its cluster state is captured as an entry state for the next
// level. Level ℓ+1 trials restore entry states round-robin and continue
// under fresh randomness until they either reach the next threshold or
// regenerate (penalty back to zero — the reward mechanism erased all
// progress, so the trajectory can no longer reach the level without
// re-crossing the ones below). The product of the per-level success
// fractions estimates the rare-event probability, with first-order
// relative error and Wilson intervals from internal/stats.
//
// Trials run in the lanes of a sim.BatchDiagCluster: each campaign worker
// keeps one gang (16 lanes at N=4), warmed past the diagnosis lag, across
// all levels, and streams batches of trials through it. The lanes whose
// trials hit, regenerate or run out of rounds in a round take the batch's
// next trials at the round boundary, in lane order: one RestoreLanes call
// writes their entry states into all of them at once. A level crossing is
// captured with CaptureLaneRecord as a lane record, the lane's share of the
// cluster state only: a fixed-stride, pointer-free run of words appended to
// the worker's own slab for the level. A worker's slabs alternate between
// levels and keep their memory, so once the levels have warmed them a
// crossing allocates nothing and the garbage collector has nothing to scan.
// A lane's one disturbance, its trial's keyed transient, answers
// tdma.Quieter: it never touches a sender other than the target, and the
// target's slot only in the rounds whose keyed hash hits, so at the
// campaign's fault rates nearly every lane·slot folds in with word
// operations instead of running the chain; a refill makes only the
// refilled lanes ask again. The per-run trial body, which restores a
// whole-cluster checkpoint into a per-run cluster under a fault.Predicate
// of its own, is kept in the tests as the oracle the gang must match
// exactly (TestRunMatchesPerRun).
//
// Refilling lanes is most of the estimator's work. Slab records, one
// refill per round boundary and lane-local quiet-slot wakes took the
// rare-event benchmark workload (-splitting 14000, two workers) from a
// median of 1.14M to 1.57M repetitions per second and from 0.229 to 0.164
// CPU seconds and 36.8 to 29.0 MB peak per launch, over ten alternating
// ttdiag-bench pairs on a 2-vCPU Xeon VM (docs/PERFORMANCE.md, "Rare-event
// at restore speed").
//
// Determinism contract: trials are scheduled on the internal/campaign pool
// in index-addressed batches; each trial's randomness is one named stream
// ("<name>/L<level>/T<trial>") drawn through rng.Pool's reseed-in-place
// reuse, and its fault process is a pure hash of (trial key, round), where
// the round is the trial's own, counted from the start of the run, not the
// gang's — so every receiver of a slot sees the same verdict, a restored
// suffix replays its prefix's faults exactly, and a trial's outcome does not
// depend on its lane, its worker or the trials before it. The estimate is
// bit-identical at any worker count. Entry states are collected in
// trial-index order and shared read-only across workers: a level reads the
// slabs the previous level's workers wrote and writes the other ones.
package splitting

import (
	"fmt"
	"math"
	"math/bits"

	"ttdiag/internal/campaign"
	"ttdiag/internal/rng"
	"ttdiag/internal/sim"
	"ttdiag/internal/stats"
	"ttdiag/internal/tdma"
)

// Config parameterises one splitting estimation.
type Config struct {
	// Cluster shapes the simulated system. The penalty/reward thresholds in
	// Cluster.PR define the dynamics the levels climb.
	Cluster sim.ClusterConfig
	// Target is the node (1-based) whose runaway penalty is the rare event;
	// 0 defaults to node 1.
	Target int
	// Levels are the ascending penalty thresholds, as seen by the observer
	// (the lowest-numbered node other than Target). A trial at level ℓ
	// succeeds when the observer's penalty for Target reaches Levels[ℓ].
	// The last level is the rare event itself — set it to
	// PenaltyThreshold+1 for isolation.
	Levels []int64
	// Effort is the number of trials per level (fixed-effort splitting).
	Effort int
	// StageRounds bounds each trial's round count; 0 defaults to 16.
	StageRounds int
	// WarmRounds is the fault-free run-in before the shared base state is
	// captured; 0 defaults to the diagnosis lag + 2. A shorter run-in than
	// the lag is rejected: the base state would still be warming up, which
	// trials restored into a warm gang cannot reproduce.
	WarmRounds int
	// FaultProb is the per-round probability of a benign transient fault in
	// Target's sending slot.
	FaultProb float64
	// Workers bounds the campaign pool (<= 0 means GOMAXPROCS). The
	// estimate is bit-identical at any value.
	Workers int
	// Name prefixes the per-trial stream names; "" defaults to "splitting".
	Name string
}

func (c Config) withDefaults() (Config, error) {
	if c.Target == 0 {
		c.Target = 1
	}
	if c.StageRounds == 0 {
		c.StageRounds = 16
	}
	if c.StageRounds < 0 {
		return c, fmt.Errorf("splitting: %d stage rounds, need >= 1", c.StageRounds)
	}
	if c.Name == "" {
		c.Name = "splitting"
	}
	if c.Effort < 1 {
		return c, fmt.Errorf("splitting: effort %d, need >= 1", c.Effort)
	}
	if len(c.Levels) == 0 {
		return c, fmt.Errorf("splitting: no levels")
	}
	var prev int64
	for _, l := range c.Levels {
		if l <= prev {
			return c, fmt.Errorf("splitting: levels must be ascending and positive, got %v", c.Levels)
		}
		prev = l
	}
	if c.FaultProb < 0 || c.FaultProb > 1 {
		return c, fmt.Errorf("splitting: fault probability %v outside [0, 1]", c.FaultProb)
	}
	return c, nil
}

// LevelResult reports one level of the estimation.
type LevelResult struct {
	// Threshold is the penalty value this level's trials had to reach.
	Threshold int64
	// Trials and Hits are the fixed effort and its successes.
	Trials, Hits int
	// P is the conditional probability estimate Hits/Trials.
	P float64
	// WilsonLo/WilsonHi bound P at 95% confidence (Wilson score).
	WilsonLo, WilsonHi float64
	// Rounds is the number of engine rounds this level simulated.
	Rounds int64
}

// Result is the full splitting estimate.
type Result struct {
	// Levels holds the per-level results in climbing order. When a level
	// produces zero hits the estimation stops there: later levels are
	// unreachable and absent.
	Levels []LevelResult
	// P is the product estimate of the rare-event probability.
	P float64
	// RelErr is the first-order relative standard error of P (+Inf when a
	// level produced zero hits).
	RelErr float64
	// Rounds is the total number of engine rounds simulated, warm-up
	// included; NodeRounds multiplies by the node count.
	Rounds, NodeRounds int64
	// Clones is the number of entry checkpoints captured at level
	// crossings; Captures additionally counts the base state; Restores is
	// the number of checkpoint restores performed.
	Clones, Captures int
	Restores         int64
	// NaiveTrials estimates how many naive Monte-Carlo runs would be needed
	// for the same relative error ((1-P)/(P·RelErr²)); NaiveRounds scales
	// by the escalation horizon StageRounds·len(Levels). Both are +Inf when
	// P is 0 and 0 when P is 1.
	NaiveTrials, NaiveRounds float64
}

// keyedTransient corrupts the target node's sending slot in round r iff a
// hash of (key, r) clears the probability threshold. Being a pure function
// of the round, every receiver of the slot — and the sender's own collision
// detector — sees the same verdict, and a restored clone replays the faults
// its checkpoint prefix saw. Re-keying gives a clone fresh randomness
// without any generator state to checkpoint. Each gang lane carries its
// own: off maps the gang's round onto the round the lane's trial is at, so
// the hash sees exactly the rounds a trial run on its own would.
//
// It is a tdma.Quieter: the hash can be evaluated ahead, so the gang asks
// it when the target's slot next loses a frame and folds every slot before
// that in without running the chain.
type keyedTransient struct {
	target tdma.NodeID
	thresh uint64 // probability scaled to [0, 2^53]
	key    uint64
	off    int
}

var (
	_ tdma.Disturbance = (*keyedTransient)(nil)
	_ tdma.Quieter     = (*keyedTransient)(nil)
)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (f *keyedTransient) hit(round int) bool {
	return splitmix(f.key^(uint64(round)*0x9e3779b97f4a7c15))>>11 < f.thresh
}

// corrupts reports whether tx is a transmission the transient destroys.
func (f *keyedTransient) corrupts(tx *tdma.Transmission) bool {
	return tx.Sender == f.target && f.hit(tx.Round+f.off)
}

// Deliver implements tdma.Disturbance: a hit slot is locally detectable at
// every receiver.
func (f *keyedTransient) Deliver(tx *tdma.Transmission, _ tdma.NodeID, d tdma.Delivery) tdma.Delivery {
	if f.corrupts(tx) {
		return tdma.Delivery{}
	}
	return d
}

// SenderCollision implements tdma.Disturbance: the target's collision
// detector sees the corruption of its own slot.
func (f *keyedTransient) SenderCollision(tx *tdma.Transmission, collided bool) bool {
	return collided || f.corrupts(tx)
}

// quietScan bounds QuietUntil's look-ahead in rounds. It is sized from the
// trial lengths of the rare-event campaign: a level-0 trial runs at most
// StageRounds (16 by default, 12.7 on average), so a 16-round scan lets a
// trial that meets no fault ask once, while a trial of a later level lasts
// about two rounds and a restore throws the rest of its scan away. At the
// rare-event campaign's shape and an Effort of 14000 a 16-round scan
// evaluates 1.7M hashes and a 64-round one 3.0M, for the same number of
// questions.
const quietScan = 16

// QuietUntil implements tdma.Quieter. Senders other than the target are
// never touched. The target is left alone until the first round from
// tx.Round on whose keyed hash hits, or for quietScan rounds when none of
// them does; a hit in tx.Round itself covers nothing.
func (f *keyedTransient) QuietUntil(tx *tdma.Transmission) tdma.Wake {
	if tx.Sender != f.target || f.thresh == 0 {
		return tdma.WakeNever
	}
	r := tx.Round
	for end := r + quietScan; r < end && !f.hit(r+f.off); r++ {
	}
	return tdma.Wake{Round: r, At: math.MaxInt64}
}

// entry is a level-entry state: lane record `rec` of the session's slab
// `slab`, and the round its trial had reached, counted from the start of
// the run. It holds no pointers, so neither the entries of a level nor the
// trial results carrying them are ever scanned by the garbage collector.
type entry struct {
	slab, rec, round int
}

// slab is a growable store of lane records, side by side in chunks of
// slabChunk records, so that growing never moves a record. Its memory is
// pointer-free and kept for reuse.
type slab struct {
	chunks [][]uint64
	n      int // records in use
}

// slabChunk is the number of lane records in one chunk of a slab: about
// 75 KB at N=4.
const slabChunk = 64

// add appends an unwritten record of recLen words and returns its index.
func (b *slab) add(recLen int) int {
	if c := b.n / slabChunk; c == len(b.chunks) {
		b.chunks = append(b.chunks, make([]uint64, slabChunk*recLen))
	}
	b.n++
	return b.n - 1
}

// record returns record i.
func (b *slab) record(i, recLen int) []uint64 {
	at := i % slabChunk * recLen
	return b.chunks[i/slabChunk][at : at+recLen : at+recLen]
}

// trialOut is one trial's result. entry is set iff the trial succeeded at
// a non-final level (final-level successes need no entry state).
type trialOut[E any] struct {
	hit    bool
	rounds int64
	entry  E
}

// session carries the per-run state shared (read-only during a level's
// campaign) between trials.
type session struct {
	cfg      Config
	src      *rng.Source
	n        int // node count
	observer int
	warm     int // gang run-in before the first restore: the diagnosis lag
	batch    int // trials per campaign job
	recLen   int // words of one lane record
	// slabs holds the lane records of the entry states: slab 0 the base
	// state, then two per worker. A worker captures the crossings of level
	// ℓ into its slab ℓ mod 2 and so overwrites the records of level ℓ-2,
	// which only level ℓ-1 read. A slab grows when a level crosses more
	// often than any before and otherwise keeps its memory. Workers write
	// only their own slabs, and the table itself grows only while the
	// campaign builds its workers, before any trial.
	slabs []slab
	// workers are kept across levels: a level's campaign takes them in
	// order (see takeWorker), building more only when it runs more
	// workers.
	workers []*worker
	taken   int
}

// worker is one campaign worker's gang: every lane runs one trial at a
// time, each under its own keyed fault process.
type worker struct {
	cl     *sim.BatchDiagCluster
	faults []*keyedTransient // per lane
	trial  []int             // per lane: index into the batch, -1 idle
	slabs  [2]int            // the worker's output slabs, by level parity
	recs   [][]uint64        // refill's lane records, in lane order
}

// newSession validates the cluster against cfg, runs a gang fault-free for
// the run-in and captures its lane 0 as the base entry state, the one
// level 0 starts from. The gang then serves the first worker.
func newSession(cfg Config, src *rng.Source) (*session, entry, error) {
	s := &session{cfg: cfg, src: src}
	boot, err := s.newGang(0)
	if err != nil {
		return nil, entry{}, err
	}
	s.n = boot.Config().N
	if cfg.Target < 1 || cfg.Target > s.n {
		return nil, entry{}, fmt.Errorf("splitting: target %d outside 1..%d", cfg.Target, s.n)
	}
	s.observer = observerOf(cfg.Target)
	for id := 1; id <= s.n; id++ {
		s.warm = max(s.warm, boot.Proto(id).Config().Lag())
	}
	warm := cfg.WarmRounds
	if warm == 0 {
		warm = boot.Proto(s.observer).Config().Lag() + 2
	}
	if warm < s.warm {
		return nil, entry{}, fmt.Errorf("splitting: warm-up of %d rounds is shorter than the diagnosis lag %d", warm, s.warm)
	}
	for r := 0; r < warm; r++ {
		if err := boot.Step(); err != nil {
			return nil, entry{}, err
		}
	}
	s.batch = trialsPerLane * boot.Lanes()
	s.recLen = boot.LaneRecordLen()
	// Slab 0 holds the base state alone, in a chunk of its size.
	s.slabs = []slab{{chunks: [][]uint64{make([]uint64, s.recLen)}, n: 1}}
	base := entry{round: warm}
	if err := boot.CaptureLaneRecord(0, s.record(base)); err != nil {
		return nil, entry{}, err
	}
	s.addWorker(boot)
	return s, base, nil
}

// newGang builds a full-width gang and runs it fault-free for `rounds`
// rounds.
func (s *session) newGang(rounds int) (*sim.BatchDiagCluster, error) {
	cl, err := sim.NewBatchDiagCluster(s.cfg.Cluster)
	if err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		if err := cl.Step(); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// addWorker makes a worker of a gang warmed past the diagnosis lag, so
// that every restored lane reads its collision history from rounds the
// gang has, and gives it two output slabs. Faults are off until a lane
// takes its first trial.
func (s *session) addWorker(cl *sim.BatchDiagCluster) {
	w := &worker{
		cl:     cl,
		faults: make([]*keyedTransient, cl.Lanes()),
		trial:  make([]int, cl.Lanes()),
		slabs:  [2]int{len(s.slabs), len(s.slabs) + 1},
		recs:   make([][]uint64, 0, cl.Lanes()),
	}
	s.slabs = append(s.slabs, slab{}, slab{})
	for r := range w.faults {
		f := &keyedTransient{target: tdma.NodeID(s.cfg.Target)}
		w.faults[r] = f
		cl.AddLaneDisturbance(r, f)
	}
	s.workers = append(s.workers, w)
}

// takeWorker hands a level's campaign its next worker, building one when
// the level runs more workers than any before, with its slab for this
// level emptied. The campaign calls it serially, before any trial runs.
func (s *session) takeWorker(level int) (*worker, error) {
	if s.taken == len(s.workers) {
		cl, err := s.newGang(s.warm)
		if err != nil {
			return nil, err
		}
		s.addWorker(cl)
	}
	w := s.workers[s.taken]
	s.taken++
	s.slabs[w.slabs[level&1]].n = 0
	return w, nil
}

// runLevel runs one level's Effort trials from the given entry states on
// the campaign pool and returns their results by trial index.
func (s *session) runLevel(level int, entries []entry) ([]trialOut[entry], error) {
	s.taken = 0
	return campaign.RunBatchedWith(campaign.Options{Workers: s.cfg.Workers}, s.cfg.Effort, s.batch,
		func() (*worker, error) { return s.takeWorker(level) },
		func(w *worker, base, _ int, out []trialOut[entry]) error {
			return s.runBatch(w, level, base, entries, out)
		})
}

// record returns the lane record e points at.
func (s *session) record(e entry) []uint64 {
	return s.slabs[e.slab].record(e.rec, s.recLen)
}

// capture records lane r as an entry state in the worker's slab for this
// level.
func (s *session) capture(w *worker, r, level int) (entry, error) {
	e := entry{slab: w.slabs[level&1], round: w.cl.Round() + w.faults[r].off}
	e.rec = s.slabs[e.slab].add(s.recLen)
	return e, w.cl.CaptureLaneRecord(r, s.record(e))
}

// importance is the level function: the observer's penalty count for the
// target in one lane. It keeps its crossing value after isolation (no
// reward updates for inactive nodes), so the top level PenaltyThreshold+1
// is absorbing.
func (s *session) importance(cl *sim.BatchDiagCluster, lane int) int64 {
	return cl.Proto(s.observer).LanePenalty(lane, s.cfg.Target)
}

// levelName is the hash of the stream names of a level's trials up to the
// trial number: "<name>/L<level>/T".
func (s *session) levelName(level int) rng.NameHash {
	return rng.HashName(s.cfg.Name).Add("/L").AddInt(int64(level)).Add("/T")
}

// trialKey is the key of one trial of the level whose names hash to level:
// the first draw of the stream "<name>/L<level>/T<trial>", the only draw the
// trial's randomness needs.
func (s *session) trialKey(level rng.NameHash, trial int) uint64 {
	return s.src.FirstUint64(level.AddInt(int64(trial)))
}

// rekey gives lane r's fault process the randomness of trial `trial` of
// the level whose trial names hash to `level` (levelName), which starts
// from an entry state at round `round`. It follows the lane's restore and
// precedes the next Step: a restore makes the lane ask its transient
// afresh which slots it leaves quiet, so the gang never trusts an answer
// the previous trial's key gave.
func (s *session) rekey(w *worker, r int, level rng.NameHash, trial, round int) {
	f := w.faults[r]
	f.key = s.trialKey(level, trial)
	f.thresh = uint64(s.cfg.FaultProb * (1 << 53))
	f.off = round - w.cl.Round()
}

// runBatch runs trials base..base+len(out)-1 of a level through the
// worker's gang. The lanes whose trials hit, regenerate or exhaust
// StageRounds in a round take the batch's next trials, in lane order, at
// the round boundary, all restored from their entry states by one
// RestoreLanes call; a trial's result depends on its index alone, never on
// its lane or on the trials before it.
func (s *session) runBatch(w *worker, level, base int, entries []entry, out []trialOut[entry]) error {
	threshold := s.cfg.Levels[level]
	final := level == len(s.cfg.Levels)-1
	name := s.levelName(level)
	next, busy := 0, 0
	// refill gives the lanes of the mask the batch's next trials, leaving
	// the lanes it has no trial for idle.
	refill := func(lanes uint64) error {
		w.recs = w.recs[:0]
		var loaded uint64
		for m := lanes; m != 0 && next < len(out); m &= m - 1 {
			r := bits.TrailingZeros64(m)
			w.recs = append(w.recs, s.record(entries[(base+next)%len(entries)]))
			w.trial[r] = next
			loaded |= 1 << uint(r)
			next++
			busy++
		}
		for m := lanes &^ loaded; m != 0; m &= m - 1 {
			w.trial[bits.TrailingZeros64(m)] = -1
		}
		if loaded == 0 {
			return nil
		}
		if err := w.cl.RestoreLanes(loaded, w.recs); err != nil {
			return err
		}
		for m := loaded; m != 0; m &= m - 1 {
			r := bits.TrailingZeros64(m)
			trial := base + w.trial[r]
			s.rekey(w, r, name, trial, entries[trial%len(entries)].round)
		}
		return nil
	}
	if err := refill(uint64(1)<<uint(len(w.trial)) - 1); err != nil {
		return err
	}
	for busy > 0 {
		if err := w.cl.Step(); err != nil {
			return err
		}
		var ended uint64
		for r, i := range w.trial {
			if i < 0 {
				continue
			}
			o := &out[i]
			o.rounds++
			imp := s.importance(w.cl, r)
			switch {
			case imp >= threshold:
				o.hit = true
				if !final {
					e, err := s.capture(w, r, level)
					if err != nil {
						return err
					}
					o.entry = e
				}
			case level > 0 && imp == 0:
				// Regenerated: the reward mechanism cleared every
				// counter, so the trajectory is back below level 0's
				// threshold.
			case o.rounds < int64(s.cfg.StageRounds):
				continue
			}
			busy--
			ended |= 1 << uint(r)
		}
		if ended != 0 {
			if err := refill(ended); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes the splitting estimation. The estimate is a pure function of
// (cfg, src's seed): bit-identical at any worker count.
func Run(cfg Config, src *rng.Source) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s, base, err := newSession(cfg, src)
	if err != nil {
		return nil, err
	}
	return estimate(cfg, s.n, base.round, base, s.runLevel)
}

// trialsPerLane sizes a worker's batch of trials: a batch ends with lanes
// idling until its last trials finish, so a batch of many trials per lane
// keeps that tail small.
const trialsPerLane = 64

// observerOf returns the node whose penalty counter for target is the
// importance function: the lowest-numbered node other than target.
func observerOf(target int) int {
	if target == 1 {
		return 2
	}
	return 1
}

// estimate runs the fixed-effort levels from one base entry state and
// assembles the Result; warm is the run-in the base state took. runLevel
// runs one level's Effort trials from the given entry states and returns
// their results by trial index: on the gang in production, on the per-run
// cluster in the tests' oracle.
func estimate[E any](cfg Config, n, warm int, base E, runLevel func(level int, entries []E) ([]trialOut[E], error)) (*Result, error) {
	res := &Result{Rounds: int64(warm), Captures: 1}
	entries := []E{base}
	successes := make([]int64, 0, len(cfg.Levels))
	trials := make([]int64, 0, len(cfg.Levels))
	for level := range cfg.Levels {
		outs, err := runLevel(level, entries)
		if err != nil {
			return nil, err
		}
		lr := LevelResult{Threshold: cfg.Levels[level], Trials: cfg.Effort}
		final := level == len(cfg.Levels)-1
		next := make([]E, 0, len(outs))
		for _, out := range outs {
			lr.Rounds += out.rounds
			if out.hit {
				lr.Hits++
				if !final {
					next = append(next, out.entry)
				}
			}
		}
		lr.P = float64(lr.Hits) / float64(lr.Trials)
		lr.WilsonLo, lr.WilsonHi = stats.Wilson(int64(lr.Hits), int64(lr.Trials), 1.96)
		res.Levels = append(res.Levels, lr)
		res.Rounds += lr.Rounds
		res.Restores += int64(cfg.Effort)
		res.Clones += len(next)
		res.Captures += len(next)
		successes = append(successes, int64(lr.Hits))
		trials = append(trials, int64(lr.Trials))
		if lr.Hits == 0 {
			break // later levels are unreachable from zero entry states
		}
		if !final {
			entries = next
		}
	}

	res.P = 1
	for _, lr := range res.Levels {
		res.P *= lr.P
	}
	if len(res.Levels) < len(cfg.Levels) {
		res.P = 0 // stopped early on a dry level
	}
	res.RelErr = stats.RelativeErrorProduct(successes, trials)
	res.NodeRounds = res.Rounds * int64(n)
	switch {
	case res.P <= 0:
		res.NaiveTrials, res.NaiveRounds = math.Inf(1), math.Inf(1)
	case res.P >= 1:
		res.NaiveTrials, res.NaiveRounds = 0, 0
	default:
		res.NaiveTrials = (1 - res.P) / (res.P * res.RelErr * res.RelErr)
		res.NaiveRounds = res.NaiveTrials * float64(cfg.StageRounds*len(cfg.Levels))
	}
	return res, nil
}
