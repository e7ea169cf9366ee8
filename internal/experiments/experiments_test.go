package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"behaviot/internal/core"
)

// quickLab is shared across tests (building it trains the full
// pipeline).
var quickLab *Lab

func getLab(t *testing.T) *Lab {
	t.Helper()
	if quickLab == nil {
		quickLab = NewLab(QuickScale())
	}
	return quickLab
}

// TestQuickLabModelPin pins the bytes of the quick-scale lab's trained
// pipeline, the model every quick experiment reports on. A change that
// moves the pin updates it and says why; one that only refactors
// training must leave it alone. The pin holds whichever tests ran
// first, because no experiment can write the lab's model.
func TestQuickLabModelPin(t *testing.T) {
	model := core.MarshalPipeline(getLab(t).Pipeline())
	const want, size = "293fc3affea3dc3d74d4f3162fca1366644b170572ffae112c755be0ad9f7e21", 3031950
	if got := fmt.Sprintf("%x", sha256.Sum256(model)); got != want || len(model) != size {
		t.Errorf("quick lab model: sha256 %s, %d bytes; want %s, %d bytes", got, len(model), want, size)
	}
}

// TestLabModelSurvivesExperiments holds the lab read-only once trained:
// experiments that classify (and so move periodic timer anchors) do it
// on their own fork, and the lab's model marshals to the same bytes
// afterwards.
func TestLabModelSurvivesExperiments(t *testing.T) {
	l := getLab(t)
	before := core.MarshalPipeline(l.Pipeline())
	Table2(l)
	Fig5(l, 2)
	if after := core.MarshalPipeline(l.Pipeline()); !bytes.Equal(before, after) {
		t.Errorf("lab model changed under Table2 and Fig5: %d bytes before, %d after", len(before), len(after))
	}
}

func TestPeriodicityExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic sweep")
	}
	r := Periodicity(1, 40)
	if r.PeriodicOK < 38 {
		t.Errorf("periodic: %d/40", r.PeriodicOK)
	}
	if r.AperiodicOK < 38 {
		t.Errorf("aperiodic: %d/40", r.AperiodicOK)
	}
	if r.NoisyOK < 35 {
		t.Errorf("noisy: %d/40", r.NoisyOK)
	}
	if !strings.Contains(r.String(), "periodicity") {
		t.Error("String output malformed")
	}
}

func TestTable2Shape(t *testing.T) {
	l := getLab(t)
	r := Table2(l)
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	if r.Total.PeriodicCoverage < 0.95 {
		t.Errorf("periodic coverage = %.3f, paper 0.998", r.Total.PeriodicCoverage)
	}
	if r.Total.PeriodicEventAcc < 0.95 {
		t.Errorf("periodic event acc = %.3f, paper 0.992", r.Total.PeriodicEventAcc)
	}
	if r.Total.UserEventAcc < 0.85 {
		t.Errorf("user event acc = %.3f, paper 0.989", r.Total.UserEventAcc)
	}
	if r.Total.AperiodicPct > 0.05 {
		t.Errorf("aperiodic %% = %.4f, paper 0.0052", r.Total.AperiodicPct)
	}
	t.Log("\n" + r.String())
}

func TestTable3BehavIoTWins(t *testing.T) {
	l := getLab(t)
	r := Table3(l)
	if len(r.Rows) < 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The paper's shape: BehavIoT meets or exceeds PingPong on most
	// devices, and strictly beats it on the variable-length TP-Link Bulb.
	if r.WinsOrTies() < len(r.Rows)-1 {
		t.Errorf("BehavIoT wins/ties on %d of %d devices", r.WinsOrTies(), len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Device == "TPLink Bulb" && row.BehavIoT <= row.PingPong {
			t.Errorf("TPLink Bulb: BehavIoT %.2f vs PingPong %.2f, want strict win", row.BehavIoT, row.PingPong)
		}
	}
	t.Log("\n" + r.String())
}

func TestTable4Shape(t *testing.T) {
	l := getLab(t)
	r := Table4(l)
	if len(r.Rows) == 0 || r.Count == 0 {
		t.Fatal("empty table 4")
	}
	t.Log("\n" + r.String())
}

func TestTable5Shape(t *testing.T) {
	l := getLab(t)
	r := Table5(l)
	per := r.Totals(core.EventPeriodic)
	if per.Total() == 0 {
		t.Fatal("no periodic destinations")
	}
	// Shape: periodic events reach more third parties than user events.
	if r.ThirdPartyShare(core.EventPeriodic) < r.ThirdPartyShare(core.EventUser) {
		t.Errorf("third-party share: periodic %.3f < user %.3f (paper: periodic higher)",
			r.ThirdPartyShare(core.EventPeriodic), r.ThirdPartyShare(core.EventUser))
	}
	t.Log("\n" + r.String())
}

func TestTable9Shape(t *testing.T) {
	l := getLab(t)
	r := Table9(l)
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	if r.Periodic < 0.9 {
		t.Errorf("periodic fraction = %.3f, paper 0.978", r.Periodic)
	}
	if r.Aperiodic > 0.03 {
		t.Errorf("aperiodic fraction = %.4f, paper 0.00675", r.Aperiodic)
	}
	if r.Periodic+r.User+r.Aperiodic < 0.999 {
		t.Error("fractions do not sum to 1")
	}
	t.Log("\n" + r.String())
}

func TestFig3Compactness(t *testing.T) {
	l := getLab(t)
	r := Fig3(l)
	if len(r.Points) < 2 {
		t.Fatal("too few points")
	}
	f := r.Final()
	// The paper's shape: sequence nodes/edges grow far faster than PFSM's.
	if f.SeqNodes < 2*f.PFSMNodes {
		t.Errorf("seq nodes %d not ≫ PFSM nodes %d", f.SeqNodes, f.PFSMNodes)
	}
	// PFSM growth is sublinear: last point's nodes < 2× midpoint's.
	mid := r.Points[len(r.Points)/2]
	if mid.PFSMNodes > 0 && float64(f.PFSMNodes) > 3*float64(mid.PFSMNodes) {
		t.Errorf("PFSM nodes grew %d → %d (superlinear)", mid.PFSMNodes, f.PFSMNodes)
	}
	t.Log("\n" + r.String())
}

func TestFig4aOverlap(t *testing.T) {
	l := getLab(t)
	r := Fig4a(l)
	if len(r.Train.Values) == 0 || len(r.Test.Values) == 0 {
		t.Fatal("empty series")
	}
	// Train and test distributions overlap: medians within the threshold
	// and of similar magnitude.
	trP50 := r.Train.Quantiles(0.5)[0]
	teP50 := r.Test.Quantiles(0.5)[0]
	if trP50 > 0.5 || teP50 > 0.5 {
		t.Errorf("medians too high: train %.3f test %.3f", trP50, teP50)
	}
	if r.ConsistentFracTrain < 0.99 {
		t.Errorf("period-consistent fraction = %.3f, paper > 0.99", r.ConsistentFracTrain)
	}
	t.Log("\n" + r.String())
}

func TestFig4aKFoldOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("5-fold retraining")
	}
	l := getLab(t)
	r := Fig4aKFold(l, 5)
	if len(r.Folds) != 5 {
		t.Fatalf("folds = %d", len(r.Folds))
	}
	if len(r.CombinedTrain.Values) == 0 || len(r.CombinedTest.Values) == 0 {
		t.Fatal("empty combined series")
	}
	// The paper's claim: train and test distributions overlap. Medians
	// must agree to well under the significance threshold.
	if gap := r.Overlap(); gap > 0.2 {
		t.Errorf("median gap = %.3f, want ≈ 0", gap)
	}
	t.Log("\n" + r.String())
}

func TestFig4bShiftsRight(t *testing.T) {
	l := getLab(t)
	r := Fig4b(l)
	if !r.MeansShiftRight() {
		t.Error("short-term metric did not shift right with injections")
	}
	t.Log("\n" + r.String())
}

func TestFig4cShiftsRight(t *testing.T) {
	l := getLab(t)
	r := Fig4c(l)
	if !r.MeansShiftRight() {
		t.Error("long-term metric did not shift right with duplication")
	}
	t.Log("\n" + r.String())
}

func TestDeviationCasesAllDetected(t *testing.T) {
	l := getLab(t)
	r := DeviationCases(l)
	if !r.AllDetected() {
		t.Errorf("not all cases detected:\n%s", r.String())
	}
	t.Log("\n" + r.String())
}

func TestFig5SmallWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("uncontrolled replay")
	}
	l := getLab(t)
	// Replay days 0-15: covers relocations (3,4,8), the storm (12) and
	// the reset (14).
	r := Fig5(l, 16)
	if len(r.Days) != 16 {
		t.Fatalf("days = %d", len(r.Days))
	}
	incUser, normUser, _, _ := r.IncidentDayCounts()
	if incUser == 0 {
		t.Error("no user-event deviations on incident days")
	}
	// Detections concentrate on incident days (11 normal days here).
	if normUser > incUser {
		t.Errorf("user deviations: incident %d vs normal %d (should concentrate)", incUser, normUser)
	}
	t.Log("\n" + r.String())
}

func TestAblations(t *testing.T) {
	l := getLab(t)
	r := Ablations(l)
	// Hybrid must beat or match both single strategies.
	if r.Hybrid < r.TimerOnly-0.01 || r.Hybrid < r.ClusterOnly-0.01 {
		t.Errorf("hybrid %.3f worse than timer %.3f / cluster %.3f",
			r.Hybrid, r.TimerOnly, r.ClusterOnly)
	}
	// Refinement never loses states and improves precision.
	if r.RefinedStates < r.UnrefinedStates {
		t.Errorf("refined states %d < unrefined %d", r.RefinedStates, r.UnrefinedStates)
	}
	if r.RefinedRejects < r.UnrefinedRejects {
		t.Errorf("refined rejects %d < unrefined %d", r.RefinedRejects, r.UnrefinedRejects)
	}
	// Larger trace gaps merge traces.
	if r.TraceGapCounts[15e9] < r.TraceGapCounts[300e9] {
		t.Errorf("gap sensitivity inverted: %v", r.TraceGapCounts)
	}
	t.Log("\n" + r.String())
}
