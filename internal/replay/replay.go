// Package replay is the flight-recorder tooling: it captures a bus
// transcript (every slot transmission with its per-receiver validity, the
// observed payload and the sender-side collision verdict) as JSON lines, and
// re-runs the diagnostic protocol offline from such a transcript. A
// post-mortem analyst can therefore reconstruct, for any node schedule, the
// exact health vectors and isolation decisions the cluster must have taken —
// the protocol is deterministic in its observations.
package replay

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"ttdiag/internal/core"
	"ttdiag/internal/sim"
	"ttdiag/internal/tdma"
)

// SlotRecord is one recorded slot transmission.
type SlotRecord struct {
	// Round and Slot identify the transmission.
	Round int `json:"round"`
	Slot  int `json:"slot"`
	// Payload is the observed frame content (identical at every receiver
	// that accepted it; JSON encodes it as base64).
	Payload []byte `json:"payload,omitempty"`
	// Valid[r] is receiver r's validity bit (1-based; index 0 unused).
	Valid []bool `json:"valid"`
	// Collision is the sender-side collision-detector verdict.
	Collision bool `json:"collision"`
}

// Writer streams slot records as JSON lines.
type Writer struct {
	enc *json.Encoder
}

// NewWriter wraps an io.Writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

// RecordReport converts a bus report into a record and writes it.
func (w *Writer) RecordReport(rep *tdma.TxReport) error {
	rec := SlotRecord{
		Round:     rep.Tx.Round,
		Slot:      rep.Tx.Slot,
		Collision: rep.Collision,
		Valid:     make([]bool, len(rep.Deliveries)),
	}
	for r, d := range rep.Deliveries {
		rec.Valid[r] = d.Valid
		if d.Valid && rec.Payload == nil {
			rec.Payload = append([]byte(nil), d.Payload...)
		}
	}
	return w.enc.Encode(rec)
}

// Log is a bus transcript, indexed by (round, slot).
type Log struct {
	n       int
	records map[[2]int]SlotRecord
	// lastRound is the highest recorded round.
	lastRound int
}

// Read parses a JSONL transcript for an n-node system.
func Read(r io.Reader, n int) (*Log, error) {
	log := &Log{n: n, records: make(map[[2]int]SlotRecord), lastRound: -1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec SlotRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("replay: line %d: %w", line, err)
		}
		if rec.Slot < 1 || rec.Slot > n {
			return nil, fmt.Errorf("replay: line %d: slot %d out of range 1..%d", line, rec.Slot, n)
		}
		if len(rec.Valid) != n+1 {
			return nil, fmt.Errorf("replay: line %d: valid has %d entries, want %d", line, len(rec.Valid), n+1)
		}
		log.records[[2]int{rec.Round, rec.Slot}] = rec
		if rec.Round > log.lastRound {
			log.lastRound = rec.Round
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return log, nil
}

// N returns the system size of the transcript.
func (l *Log) N() int { return l.n }

// LastRound returns the highest recorded round (-1 for an empty log).
func (l *Log) LastRound() int { return l.lastRound }

// At returns the record of (round, slot).
func (l *Log) At(round, slot int) (SlotRecord, bool) {
	rec, ok := l.records[[2]int{round, slot}]
	return rec, ok
}

// RoundDiagnosis is one reconstructed per-round outcome at one observer.
type RoundDiagnosis struct {
	// Round is the execution round, DiagnosedRound the round the vector
	// refers to.
	Round, DiagnosedRound int
	// ConsHV is the reconstructed consistent health vector.
	ConsHV core.BitSyndrome
	// Isolated marks the isolation decisions taken in this round (bit j-1 =
	// node j).
	Isolated uint64
}

// Replay re-runs the diagnostic protocol of one observer offline against the
// transcript, using the cluster configuration the recorded system ran with
// (node schedules and penalty/reward tuning must match the deployment for
// the reconstruction to be exact).
func Replay(log *Log, cfg sim.ClusterConfig, observer int) ([]RoundDiagnosis, error) {
	cfg, err := sim.NormalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.N != log.n {
		return nil, fmt.Errorf("replay: transcript covers %d nodes, config %d", log.n, cfg.N)
	}
	if observer < 1 || observer > cfg.N {
		return nil, fmt.Errorf("replay: observer %d out of range 1..%d", observer, cfg.N)
	}
	proto, err := core.NewProtocol(sim.NodeConfig(cfg, observer))
	if err != nil {
		return nil, err
	}
	l := cfg.Ls[observer-1]

	var out []RoundDiagnosis
	for round := 0; round <= log.lastRound; round++ {
		in := core.RoundInput{
			Round:    round,
			DMs:      make([]core.Syndrome, cfg.N+1),
			Validity: core.NewSyndrome(cfg.N, core.Healthy),
		}
		for j := 1; j <= cfg.N; j++ {
			// At job position l of round k, variable j holds the round-k
			// transmission if j <= l, the round-(k-1) one otherwise.
			srcRound := round
			if j > l {
				srcRound = round - 1
			}
			rec, ok := log.At(srcRound, j)
			if !ok || !rec.Valid[observer] {
				in.Validity[j] = core.Faulty
				continue
			}
			syn, err := core.DecodeSyndrome(rec.Payload, cfg.N)
			if err != nil {
				in.Validity[j] = core.Faulty
				continue
			}
			in.DMs[j] = syn
		}
		in.Collision = func(r int) core.Opinion {
			if rec, ok := log.At(r, observer); ok && rec.Collision {
				return core.Faulty
			}
			return core.Healthy
		}
		res, err := proto.Step(in)
		if err != nil {
			return nil, err
		}
		if res.ConsHV.Known != 0 {
			out = append(out, RoundDiagnosis{
				Round:          res.Round,
				DiagnosedRound: res.DiagnosedRound,
				ConsHV:         res.ConsHV,
				Isolated:       res.Isolated,
			})
		}
	}
	return out, nil
}
