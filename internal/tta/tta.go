// Package tta captures the Time-Triggered Architecture domain vocabulary of
// the paper: cluster parameters, the unique listen/cold-start timeouts of
// the startup algorithm, the six-level fault-degree classification of a
// faulty node's outputs (Fig. 3), and the closed-form scenario-count and
// worst-case-startup formulas of Section 5 (Fig. 5).
package tta

import (
	"fmt"
	"math/big"
)

// Params are the discrete-time cluster parameters. One time step is one
// TDMA slot; a round is N slots; frames occupy one slot.
type Params struct {
	// N is the number of nodes (the paper examines 3..6).
	N int
}

// Round returns the TDMA round length in slots.
func (p Params) Round() int { return p.N }

// ListenTimeout returns node i's unique listen timeout
// τ_listen(i) = 2·round + τ_startup(i) (the paper's LT_TO[i] = 2n+i).
func (p Params) ListenTimeout(i int) int { return 2*p.N + i }

// ColdstartTimeout returns node i's unique cold-start timeout
// τ_coldstart(i) = round + τ_startup(i) (the paper's CS_TO[i] = n+i).
func (p Params) ColdstartTimeout(i int) int { return p.N + i }

// MaxCount returns the paper's counter ceiling, maxcount = 20·n.
func (p Params) MaxCount() int { return 20 * p.N }

// DefaultDeltaInit returns the paper's power-on window δ_init = 8·round.
func (p Params) DefaultDeltaInit() int { return 8 * p.N }

// WorstCaseStartup returns the paper's deduced worst-case startup time
// w_sup = 7·τ_round − 5·τ_slot in slots (Section 5.3: 16, 23, 30 slots for
// n = 3, 4, 5).
func (p Params) WorstCaseStartup() int { return 7*p.N - 5 }

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("tta: cluster needs at least 2 nodes, got %d", p.N)
	}
	if p.N > 16 {
		return fmt.Errorf("tta: cluster of %d nodes exceeds supported size", p.N)
	}
	return nil
}

// FaultKind classifies the possible per-channel outputs of a faulty node,
// ordered by severity exactly as the axes of the paper's fault-degree
// matrix (Fig. 3).
type FaultKind int

// Fault kinds, in increasing severity.
const (
	// FaultQuiet sends nothing.
	FaultQuiet FaultKind = iota + 1
	// FaultCSGood sends a cold-start frame with correct semantics (the
	// faulty node's own identity).
	FaultCSGood
	// FaultIGood sends an i-frame with correct semantics.
	FaultIGood
	// FaultNoise sends a syntactically invalid signal.
	FaultNoise
	// FaultCSBad sends a cold-start frame with arbitrary (masquerading)
	// contents.
	FaultCSBad
	// FaultIBad sends an i-frame with arbitrary contents.
	FaultIBad
)

// NumFaultKinds is the number of per-channel fault kinds.
const NumFaultKinds = 6

func (k FaultKind) String() string {
	switch k {
	case FaultQuiet:
		return "quiet"
	case FaultCSGood:
		return "cs_frame(good)"
	case FaultIGood:
		return "i_frame(good)"
	case FaultNoise:
		return "noise"
	case FaultCSBad:
		return "cs_frame(bad)"
	case FaultIBad:
		return "i_frame(bad)"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// DegreeOf returns the fault degree of a combined output (chA, chB) per the
// paper's 6×6 matrix: the maximum severity of the two channels.
func DegreeOf(chA, chB FaultKind) int {
	if chA > chB {
		return int(chA)
	}
	return int(chB)
}

// KindsAtDegree returns the per-channel fault kinds permitted at the given
// fault degree δ_failure (1..6): every kind with severity ≤ δ.
func KindsAtDegree(degree int) []FaultKind {
	if degree < 1 {
		degree = 1
	}
	if degree > NumFaultKinds {
		degree = NumFaultKinds
	}
	out := make([]FaultKind, 0, degree)
	for k := FaultQuiet; int(k) <= degree; k++ {
		out = append(out, k)
	}
	return out
}

// DegreeMatrix returns the full 6×6 fault-degree matrix of Fig. 3, indexed
// [chA-1][chB-1].
func DegreeMatrix() [NumFaultKinds][NumFaultKinds]int {
	var m [NumFaultKinds][NumFaultKinds]int
	for a := FaultQuiet; a <= FaultIBad; a++ {
		for b := FaultQuiet; b <= FaultIBad; b++ {
			m[a-1][b-1] = DegreeOf(a, b)
		}
	}
	return m
}

// ScenarioCountStartup returns |S_sup| = δ_init^(n+1): the number of
// distinct power-on patterns of n nodes and one guardian, each free to
// start at any of δ_init instants (Fig. 5).
func ScenarioCountStartup(n, deltaInit int) *big.Int {
	return new(big.Int).Exp(big.NewInt(int64(deltaInit)), big.NewInt(int64(n+1)), nil)
}

// ScenarioCountFaultyNode returns |S_f.n.| = (δ_failure²)^w_sup: the number
// of output patterns a faulty node can exhibit during a worst-case startup
// window (Fig. 5).
func ScenarioCountFaultyNode(degree, wsup int) *big.Int {
	perSlot := big.NewInt(int64(degree) * int64(degree))
	return new(big.Int).Exp(perSlot, big.NewInt(int64(wsup)), nil)
}
