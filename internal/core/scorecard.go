package core

import "math"

// ScoreRow is one entry of the reproduction scorecard: a published value,
// the measured counterpart, and a verdict.
type ScoreRow struct {
	Claim    string
	Paper    float64
	Measured float64
	// TolerancePct is the relative band (in percent of the paper value)
	// within which the verdict is "MATCH"; up to three times the band is
	// "CLOSE", beyond that "DIFF".
	TolerancePct float64
	Verdict      string
}

func verdict(paper, measured, tolPct float64) string {
	if paper == 0 {
		if measured == 0 {
			return "MATCH"
		}
		return "DIFF"
	}
	dev := 100 * math.Abs(measured-paper) / math.Abs(paper)
	switch {
	case dev <= tolPct:
		return "MATCH"
	case dev <= 3*tolPct:
		return "CLOSE"
	default:
		return "DIFF"
	}
}

// Scorecard derives the quantitative reproduction scorecard from Table 3
// rows: the paper's headline aggregates plus anchor cells chosen across
// metric families. Tolerances reflect what the synthetic-trace
// substitution can promise (see DESIGN.md): tight for structural metrics
// (rank distance, peers for stencil apps), looser for volume-sensitive
// ones.
func Scorecard(rows []*Analysis) []ScoreRow {
	byKey := map[WorkloadRef]*Analysis{}
	for _, a := range rows {
		byKey[WorkloadRef{App: a.App, Ranks: a.Ranks}] = a
	}
	claims := SummarizeClaims(rows)

	var out []ScoreRow
	add := func(claim string, paper, measured, tolPct float64) {
		out = append(out, ScoreRow{
			Claim: claim, Paper: paper, Measured: measured,
			TolerancePct: tolPct, Verdict: verdict(paper, measured, tolPct),
		})
	}

	// Headline aggregates.
	add("selectivity <= 10 partners [% of p2p configs]", 89, claims.SelectivityLE10Pct, 10)
	add("utilization < 1% [% of cells]", 93, claims.UtilizationLT1Pct, 5)
	add("dragonfly global-link message share [%]", 95, claims.DragonflyGlobalSharePct, 15)

	// Anchor cells: MPI-level metrics.
	anchor := func(app string, ranks int) *Analysis { return byKey[WorkloadRef{App: app, Ranks: ranks}] }
	if a := anchor("LULESH", 64); a != nil {
		add("LULESH/64 peers", 26, float64(a.Peers), 1)
		add("LULESH/64 rank distance", 15.7, a.RankDistance, 10)
		add("LULESH/64 selectivity", 4.5, a.Selectivity, 10)
	}
	if a := anchor("AMG", 216); a != nil {
		add("AMG/216 rank distance", 35.8, a.RankDistance, 10)
	}
	if a := anchor("AMG", 1728); a != nil {
		add("AMG/1728 rank distance", 143.8, a.RankDistance, 10)
		add("AMG/1728 selectivity", 5.6, a.Selectivity, 15)
	}
	if a := anchor("PARTISN", 168); a != nil {
		add("PARTISN/168 peers", 167, float64(a.Peers), 1)
		add("PARTISN/168 rank distance", 13.8, a.RankDistance, 10)
	}
	if a := anchor("Crystal Router", 10); a != nil {
		add("Crystal Router/10 peers", 4, float64(a.Peers), 1)
		add("Crystal Router/10 selectivity", 3.0, a.Selectivity, 10)
	}

	// Anchor cells: system-level metrics.
	if a := anchor("BigFFT", 1024); a != nil && a.Torus != nil {
		add("BigFFT/1024 torus avg hops", 8.00, a.Torus.AvgHops, 3)
		add("BigFFT/1024 torus utilization [%]", 47.23, a.Torus.UtilizationPct, 10)
		if a.Dragonfly != nil {
			add("BigFFT/1024 dragonfly avg hops", 4.69, a.Dragonfly.AvgHops, 5)
		}
	}
	if a := anchor("AMG", 8); a != nil && a.FatTree != nil {
		add("AMG/8 fat tree avg hops", 2.00, a.FatTree.AvgHops, 1)
	}
	if a := anchor("CESAR MOCFE", 1024); a != nil && a.Torus != nil {
		add("MOCFE/1024 torus avg hops", 7.98, a.Torus.AvgHops, 3)
	}
	return out
}

// ScorecardSummary counts verdicts.
func ScorecardSummary(rows []ScoreRow) (match, close, diff int) {
	for _, r := range rows {
		switch r.Verdict {
		case "MATCH":
			match++
		case "CLOSE":
			close++
		default:
			diff++
		}
	}
	return match, close, diff
}
