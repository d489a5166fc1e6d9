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
// keeps one gang (16 lanes at N=4), warmed past the diagnosis lag, and
// streams a batch of trials through it. A lane whose trial hits,
// regenerates or runs out of rounds takes the batch's next trial at the
// next round boundary: RestoreLane writes the trial's entry state into the
// lane, and a level crossing is captured with CaptureLane into a
// sim.LaneCheckpoint, the lane's share of the cluster state only. A lane's
// one disturbance, its trial's keyed transient, answers tdma.Quieter: it
// never touches a sender other than the target, and the target's slot only
// in the rounds whose keyed hash hits, so at the campaign's fault rates
// nearly every lane·slot folds in with word operations instead of running
// the chain. The per-run trial body, which restores a whole-cluster
// checkpoint into a per-run cluster under a fault.Predicate of its own, is
// kept in the tests as the oracle the gang must match exactly
// (TestRunMatchesPerRun).
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
// trial-index order and shared read-only across workers.
package splitting

import (
	"fmt"
	"math"
	"strconv"

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

// quietScan bounds QuietUntil's look-ahead in rounds: longer than a trial's
// default 16 StageRounds, so a trial that meets no fault asks once, and
// short enough that a rare fault costs at most 64 hashes per answer.
const quietScan = 64

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

// entry is a level-entry state: a lane checkpoint and the round its trial
// had reached, counted from the start of the run.
type entry struct {
	ck    *sim.LaneCheckpoint
	round int
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
	observer int
	warm     int // gang run-in before the first restore: the diagnosis lag
}

// worker is one campaign worker's gang: every lane runs one trial at a
// time, each under its own keyed fault process.
type worker struct {
	cl     *sim.BatchDiagCluster
	pool   *rng.Pool
	faults []*keyedTransient // per lane
	trial  []int             // per lane: index into the batch, -1 idle
	name   []byte            // load's trial stream name scratch
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

// newWorker builds one worker's gang, warmed past the diagnosis lag so
// that every restored lane reads its collision history from rounds the
// gang has run. Faults are off until a lane takes its first trial.
func (s *session) newWorker() (*worker, error) {
	cl, err := s.newGang(s.warm)
	if err != nil {
		return nil, err
	}
	w := &worker{
		cl:     cl,
		pool:   s.src.NewPool(),
		faults: make([]*keyedTransient, cl.Lanes()),
		trial:  make([]int, cl.Lanes()),
	}
	for r := range w.faults {
		f := &keyedTransient{target: tdma.NodeID(s.cfg.Target)}
		w.faults[r] = f
		cl.AddLaneDisturbance(r, f)
	}
	return w, nil
}

// importance is the level function: the observer's penalty count for the
// target in one lane. It keeps its crossing value after isolation (no
// reward updates for inactive nodes), so the top level PenaltyThreshold+1
// is absorbing.
func (s *session) importance(cl *sim.BatchDiagCluster, lane int) int64 {
	return cl.Proto(s.observer).LanePenalty(lane, s.cfg.Target)
}

// load starts trial `trial` of the level in lane r: the lane is restored
// from the trial's entry state and its fault process re-keyed from the
// trial's stream. The re-key comes after RestoreLane and before the next
// Step: RestoreLane drops the lane's quiet-slot wakes, so the gang's next
// transmission asks the re-keyed transient afresh rather than trusting an
// answer the previous trial's key gave.
func (s *session) load(w *worker, r, level, trial int, entries []*entry) error {
	e := entries[trial%len(entries)]
	if err := w.cl.RestoreLane(r, e.ck); err != nil {
		return err
	}
	w.pool.Recycle()
	f := w.faults[r]
	// The trial's stream is "<name>/L<level>/T<trial>", built in reused
	// scratch rather than formatted per trial.
	w.name = append(append(w.name[:0], s.cfg.Name...), "/L"...)
	w.name = append(strconv.AppendInt(w.name, int64(level), 10), "/T"...)
	w.name = strconv.AppendInt(w.name, int64(trial), 10)
	f.key = w.pool.StreamBytes(w.name).Uint64()
	f.thresh = uint64(s.cfg.FaultProb * (1 << 53))
	f.off = e.round - w.cl.Round()
	return nil
}

// runBatch runs trials base..base+len(out)-1 of a level through the
// worker's gang. A lane whose trial hits, regenerates or exhausts
// StageRounds takes the batch's next trial at the next round boundary; a
// trial's result depends on its index alone, never on its lane or on the
// trials before it.
func (s *session) runBatch(w *worker, level, base int, entries []*entry, out []trialOut[*entry]) error {
	threshold := s.cfg.Levels[level]
	final := level == len(s.cfg.Levels)-1
	next, busy := 0, 0
	// take gives lane r the batch's next trial, or leaves it idle.
	take := func(r int) error {
		w.trial[r] = -1
		if next == len(out) {
			return nil
		}
		if err := s.load(w, r, level, base+next, entries); err != nil {
			return err
		}
		w.trial[r] = next
		next++
		busy++
		return nil
	}
	for r := range w.trial {
		if err := take(r); err != nil {
			return err
		}
	}
	for busy > 0 {
		if err := w.cl.Step(); err != nil {
			return err
		}
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
					ck := w.cl.NewLaneCheckpoint()
					if err := w.cl.CaptureLane(r, ck); err != nil {
						return err
					}
					o.entry = &entry{ck: ck, round: w.cl.Round() + w.faults[r].off}
				}
			case level > 0 && imp == 0:
				// Regenerated: the reward mechanism cleared every
				// counter, so the trajectory is back below level 0's
				// threshold.
			case o.rounds < int64(s.cfg.StageRounds):
				continue
			}
			busy--
			if err := take(r); err != nil {
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
	s := &session{cfg: cfg, src: src}
	boot, err := s.newGang(0)
	if err != nil {
		return nil, err
	}
	n := boot.Config().N
	if cfg.Target < 1 || cfg.Target > n {
		return nil, fmt.Errorf("splitting: target %d outside 1..%d", cfg.Target, n)
	}
	s.observer = observerOf(cfg.Target)
	for id := 1; id <= n; id++ {
		s.warm = max(s.warm, boot.Proto(id).Config().Lag())
	}
	warm := cfg.WarmRounds
	if warm == 0 {
		warm = boot.Proto(s.observer).Config().Lag() + 2
	}
	if warm < s.warm {
		return nil, fmt.Errorf("splitting: warm-up of %d rounds is shorter than the diagnosis lag %d", warm, s.warm)
	}
	for r := 0; r < warm; r++ {
		if err := boot.Step(); err != nil {
			return nil, err
		}
	}
	base := &entry{ck: boot.NewLaneCheckpoint(), round: warm}
	if err := boot.CaptureLane(0, base.ck); err != nil {
		return nil, err
	}
	batch := trialsPerLane * boot.Lanes()
	return estimate(cfg, n, warm, base, func(level int, entries []*entry) ([]trialOut[*entry], error) {
		return campaign.RunBatchedWith(campaign.Options{Workers: cfg.Workers}, cfg.Effort, batch, s.newWorker,
			func(w *worker, base, _ int, out []trialOut[*entry]) error {
				return s.runBatch(w, level, base, entries, out)
			})
	})
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
