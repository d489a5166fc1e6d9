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
// point the full cluster state is captured (core.Protocol.CopyFrom /
// sim.ClusterCheckpoint — the zero-copy path, not the JSON codec) and
// becomes an entry state for the next level. Level ℓ+1 trials restore entry
// states round-robin and continue under fresh randomness until they either
// reach the next threshold or regenerate (penalty back to zero — the
// reward mechanism erased all progress, so the trajectory can no longer
// reach the level without re-crossing the ones below). The product of the
// per-level success fractions estimates the rare-event probability, with
// first-order relative error and Wilson intervals from internal/stats.
//
// Determinism contract: trials are scheduled on the internal/campaign pool
// with index-addressed results; each trial's randomness is one named stream
// ("<name>/L<level>/T<trial>") drawn through rng.Pool's reseed-in-place
// reuse, and its fault process is a pure hash of (trial key, round) — so
// every receiver of a slot sees the same verdict, a restored suffix replays
// its prefix's faults exactly, and the estimate is bit-identical at any
// worker count. Entry states are collected in trial-index order and shared
// read-only across workers.
package splitting

import (
	"fmt"
	"math"

	"ttdiag/internal/campaign"
	"ttdiag/internal/fault"
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
	// captured; 0 defaults to the diagnosis lag + 2.
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
// without any generator state to checkpoint.
type keyedTransient struct {
	target tdma.NodeID
	thresh uint64 // probability scaled to [0, 2^53]
	key    uint64
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (f *keyedTransient) hit(round int) bool {
	return splitmix(f.key^(uint64(round)*0x9e3779b97f4a7c15))>>11 < f.thresh
}

func (f *keyedTransient) predicate() fault.Predicate {
	return fault.Predicate{Match: func(tx *tdma.Transmission) bool {
		return tx.Sender == f.target && f.hit(tx.Round)
	}}
}

// worker is one campaign worker's private simulation state.
type worker struct {
	cl    *sim.DiagCluster
	pool  *rng.Pool
	fault *keyedTransient
}

// session carries the per-run state shared (read-only during a level's
// campaign) between trials.
type session struct {
	cfg      Config
	src      *rng.Source
	observer int
	entries  []*sim.ClusterCheckpoint
}

func (s *session) newWorker() (*worker, error) {
	cl, err := sim.NewReusableDiagnosticCluster(s.cfg.Cluster)
	if err != nil {
		return nil, err
	}
	cl.Reset()
	w := &worker{
		cl:   cl,
		pool: s.src.NewPool(),
		fault: &keyedTransient{
			target: tdma.NodeID(s.cfg.Target),
			thresh: uint64(s.cfg.FaultProb * (1 << 53)),
		},
	}
	// Installed once; trials re-key it. Restore never clears disturbances.
	cl.Eng.Bus().AddDisturbance(w.fault.predicate())
	return w, nil
}

// importance is the level function: the observer's penalty count for the
// target. It keeps its crossing value after isolation (no reward updates for
// inactive nodes), so the top level PenaltyThreshold+1 is absorbing.
func (s *session) importance(cl *sim.DiagCluster) int64 {
	return cl.Runners[s.observer].Protocol().PenaltyReward().Penalty(s.cfg.Target)
}

// trialOut is one trial's result. entry is non-nil iff the trial succeeded
// at a non-final level (final-level successes need no entry state).
type trialOut struct {
	hit    bool
	rounds int64
	entry  *sim.ClusterCheckpoint
}

func (s *session) runTrial(w *worker, level, trial int) (trialOut, error) {
	entry := s.entries[trial%len(s.entries)]
	if err := entry.Restore(w.cl); err != nil {
		return trialOut{}, err
	}
	w.pool.Recycle()
	st := w.pool.Stream(fmt.Sprintf("%s/L%d/T%d", s.cfg.Name, level, trial))
	w.fault.key = st.Uint64()
	threshold := s.cfg.Levels[level]
	var out trialOut
	for r := 0; r < s.cfg.StageRounds; r++ {
		if err := w.cl.Eng.RunRound(); err != nil {
			return trialOut{}, err
		}
		out.rounds++
		imp := s.importance(w.cl)
		if imp >= threshold {
			out.hit = true
			if level < len(s.cfg.Levels)-1 {
				ck, err := sim.NewClusterCheckpoint(w.cl)
				if err != nil {
					return trialOut{}, err
				}
				if err := ck.Capture(w.cl); err != nil {
					return trialOut{}, err
				}
				out.entry = ck
			}
			return out, nil
		}
		if level > 0 && imp == 0 {
			// Regenerated: the reward mechanism cleared every counter, so
			// the trajectory is back below level 0's threshold.
			return out, nil
		}
	}
	return out, nil
}

// Run executes the splitting estimation. The estimate is a pure function of
// (cfg, src's seed): bit-identical at any worker count.
func Run(cfg Config, src *rng.Source) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	boot, err := sim.NewReusableDiagnosticCluster(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	norm := boot.Config()
	if cfg.Target < 1 || cfg.Target > norm.N {
		return nil, fmt.Errorf("splitting: target %d outside 1..%d", cfg.Target, norm.N)
	}
	observer := 1
	if cfg.Target == 1 {
		observer = 2
	}
	warm := cfg.WarmRounds
	if warm == 0 {
		warm = boot.Runners[observer].Protocol().Config().Lag() + 2
	}

	res := &Result{}
	boot.Reset()
	if err := boot.Eng.RunRounds(warm); err != nil {
		return nil, err
	}
	base, err := sim.NewClusterCheckpoint(boot)
	if err != nil {
		return nil, err
	}
	if err := base.Capture(boot); err != nil {
		return nil, err
	}
	res.Rounds += int64(warm)
	res.Captures = 1

	s := &session{cfg: cfg, src: src, observer: observer,
		entries: []*sim.ClusterCheckpoint{base}}
	successes := make([]int64, 0, len(cfg.Levels))
	trials := make([]int64, 0, len(cfg.Levels))
	for level := range cfg.Levels {
		lvl := level
		outs, err := campaign.RunPooledWith(
			campaign.Options{Workers: cfg.Workers},
			cfg.Effort,
			s.newWorker,
			func(w *worker, trial int) (trialOut, error) { return s.runTrial(w, lvl, trial) },
		)
		if err != nil {
			return nil, err
		}
		lr := LevelResult{Threshold: cfg.Levels[level], Trials: cfg.Effort}
		next := make([]*sim.ClusterCheckpoint, 0, len(outs))
		for _, out := range outs {
			lr.Rounds += out.rounds
			if out.hit {
				lr.Hits++
			}
			if out.entry != nil {
				next = append(next, out.entry)
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
		if level < len(cfg.Levels)-1 {
			s.entries = next
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
	res.NodeRounds = res.Rounds * int64(norm.N)
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
