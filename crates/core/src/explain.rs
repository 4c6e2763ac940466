//! Search-result explanations: *why* did this table get this score?
//!
//! For a (query, table) pair, [`explain`] reruns Algorithm 1's scoring for
//! that table only, keeping the intermediate state the fast path discards:
//! the column mapping `τ`, each query entity's best-matching cell entity,
//! and the per-entity similarity that entered the weighted distance. The
//! output is what a search UI renders next to a hit ("Ron Santo matched
//! column *Player* exactly; Milwaukee Brewers ≈ Chicago Cubs, σ = 0.95").

use thetis_datalake::{DataLake, TableId};
use thetis_kg::EntityId;
use thetis_lsh::lsei::AdmissionEvidence;

use crate::informativeness::Informativeness;
use crate::mapping::map_tuple_to_columns;
use crate::query::Query;
use crate::semrel::distance_score;
use crate::similarity::EntitySimilarity;

/// How one query entity was matched in one table.
#[derive(Debug, Clone)]
pub struct EntityMatch {
    /// The query entity.
    pub query_entity: EntityId,
    /// The column `τ` assigned it to (`None` = no column left).
    pub column: Option<usize>,
    /// The column-relevance score `S[i][τ(i)]` that made the Hungarian
    /// step choose that column (0 when unassigned).
    pub column_relevance: f64,
    /// The best-matching entity in that column (under the row aggregation).
    pub matched_entity: Option<EntityId>,
    /// The aggregated similarity `x_i` that entered Eq. 2.
    pub similarity: f64,
    /// The informativeness weight `I(e)` of the query entity.
    pub weight: f64,
}

impl EntityMatch {
    /// This entity's contribution `I(e_i) · (1 − x_i)²` to the squared
    /// weighted distance of Eq. 2. Per tuple,
    /// `score = 1 / (sqrt(Σ_i contribution_i) + 1)` (Eq. 3) — the
    /// documented aggregation under which the per-entity σ breakdown sums
    /// to the reported SemRel score.
    pub fn distance_contribution(&self) -> f64 {
        let d = 1.0 - self.similarity;
        self.weight * d * d
    }
}

/// The explanation of one query tuple against the table.
#[derive(Debug, Clone)]
pub struct TupleExplanation {
    /// Per-query-entity matches.
    pub matches: Vec<EntityMatch>,
    /// The tuple's SemRel contribution (Eq. 3).
    pub score: f64,
}

impl TupleExplanation {
    /// The weighted distance `D_I` of Eq. 2, rebuilt from the per-entity
    /// contributions; `score == 1 / (weighted_distance() + 1)` always holds.
    pub fn weighted_distance(&self) -> f64 {
        self.matches
            .iter()
            .map(EntityMatch::distance_contribution)
            .sum::<f64>()
            .sqrt()
    }
}

/// A full explanation of `SemRel(Q, T)`: a complete score-provenance record
/// — mapping, per-entity σ breakdown, pruning bound, and (when the search
/// ran behind an LSEI) the admission evidence.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The explained table.
    pub table: TableId,
    /// One entry per query tuple.
    pub tuples: Vec<TupleExplanation>,
    /// The final table score (mean of tuple scores).
    pub score: f64,
    /// The relevance upper bound the pruning pass would have used for this
    /// table (≥ `score`; 0 for unlinked tables or empty queries).
    pub upper_bound: f64,
    /// Why the LSEI admitted this table (per-entity votes and band
    /// matches); `None` when the search did not run behind an LSEI.
    pub admission: Option<AdmissionEvidence>,
}

impl Explanation {
    /// Attaches LSEI admission evidence (see
    /// [`Lsei::admission_evidence`](thetis_lsh::lsei::Lsei::admission_evidence)).
    pub fn with_admission(mut self, admission: AdmissionEvidence) -> Self {
        self.admission = Some(admission);
        self
    }
}

/// Explains the SemRel score of `table` for `query` (max row aggregation,
/// as the engine's default).
pub fn explain(
    query: &Query,
    lake: &DataLake,
    table_id: TableId,
    sim: &dyn EntitySimilarity,
    inform: &Informativeness,
) -> Explanation {
    let table = lake.table(table_id);
    let weights = inform.query_weights(lake, query);
    let mut tuples = Vec::with_capacity(query.len());
    for (tuple, w) in query.tuples.iter().zip(&weights) {
        let (mapping, relevance) = map_tuple_to_columns(tuple, table, sim);
        let mut matches: Vec<EntityMatch> = tuple
            .iter()
            .enumerate()
            .map(|(i, &e)| EntityMatch {
                query_entity: e,
                column: mapping.columns[i],
                column_relevance: relevance[i],
                matched_entity: None,
                similarity: 0.0,
                weight: w[i],
            })
            .collect();
        // Max aggregation, remembering the argmax entity per query entity.
        for row in table.rows() {
            for m in matches.iter_mut() {
                let Some(col) = m.column else { continue };
                let Some(target) = row[col].entity() else {
                    continue;
                };
                let s = sim.sim(m.query_entity, target);
                if s > m.similarity {
                    m.similarity = s;
                    m.matched_entity = Some(target);
                }
            }
        }
        let xs: Vec<f64> = matches.iter().map(|m| m.similarity).collect();
        let score = distance_score(&xs, w);
        tuples.push(TupleExplanation { matches, score });
    }
    let score = if tuples.is_empty() {
        0.0
    } else {
        tuples.iter().map(|t| t.score).sum::<f64>() / tuples.len() as f64
    };
    let upper_bound = crate::search::upper_bound_score(
        query,
        lake,
        table_id,
        crate::sigma::SigmaSource::Direct(sim),
        &weights,
    )
    .unwrap_or(0.0);
    Explanation {
        table: table_id,
        tuples,
        score,
        upper_bound,
        admission: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semrel::RowAgg;
    use crate::similarity::TypeJaccard;
    use thetis_datalake::{CellValue, Table};
    use thetis_kg::KgBuilder;

    fn fixture() -> (
        thetis_kg::KnowledgeGraph,
        DataLake,
        Vec<EntityId>,
        Vec<EntityId>,
    ) {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let p = b.add_type("Player", Some(thing));
        let t = b.add_type("Team", Some(thing));
        let players: Vec<EntityId> = (0..3)
            .map(|i| b.add_entity(&format!("p{i}"), vec![p]))
            .collect();
        let teams: Vec<EntityId> = (0..3)
            .map(|i| b.add_entity(&format!("t{i}"), vec![t]))
            .collect();
        let g = b.freeze();
        let cell = |e: EntityId, g: &thetis_kg::KnowledgeGraph| CellValue::LinkedEntity {
            mention: g.label(e).to_string(),
            entity: e,
        };
        let mut table = Table::new("roster", vec!["Player".into(), "Team".into()]);
        for i in 0..3 {
            table.push_row(vec![cell(players[i], &g), cell(teams[i], &g)]);
        }
        (g, DataLake::from_tables(vec![table]), players, teams)
    }

    #[test]
    fn explanation_identifies_exact_matches() {
        let (g, lake, players, teams) = fixture();
        let sim = TypeJaccard::new(&g);
        let inform = Informativeness::uniform();
        let q = Query::single(vec![players[0], teams[1]]);
        let ex = explain(&q, &lake, TableId(0), &sim, &inform);
        assert_eq!(ex.tuples.len(), 1);
        let m = &ex.tuples[0].matches;
        assert_eq!(m[0].matched_entity, Some(players[0]));
        assert_eq!(m[0].similarity, 1.0);
        assert_eq!(m[0].column, Some(0));
        assert_eq!(m[1].matched_entity, Some(teams[1]));
        assert_eq!(m[1].similarity, 1.0);
        assert_eq!(m[1].column, Some(1));
        assert_eq!(ex.score, 1.0);
        assert_eq!(ex.upper_bound, 1.0);
    }

    #[test]
    fn upper_bound_dominates_the_explained_score() {
        let (g, lake, players, teams) = fixture();
        let sim = TypeJaccard::new(&g);
        let inform = Informativeness::uniform();
        for q in [
            Query::single(vec![players[1]]),
            Query::single(vec![teams[2], players[1]]),
            Query::new(vec![vec![players[0], teams[0]], vec![players[2]]]),
        ] {
            let ex = explain(&q, &lake, TableId(0), &sim, &inform);
            assert!(
                ex.score <= ex.upper_bound + 1e-12,
                "score {} exceeds bound {} for {q:?}",
                ex.score,
                ex.upper_bound
            );
        }
    }

    #[test]
    fn explanation_score_matches_algorithm_one() {
        let (g, lake, players, teams) = fixture();
        let sim = TypeJaccard::new(&g);
        let inform = Informativeness::from_lake(&lake);
        let off = thetis_obs::QueryTrace::disabled();
        for q in [
            Query::single(vec![players[0]]),
            Query::single(vec![teams[2], players[1]]),
            Query::new(vec![vec![players[0], teams[0]], vec![players[2], teams[1]]]),
        ] {
            let ex = explain(&q, &lake, TableId(0), &sim, &inform);
            let weights = inform.query_weights(&lake, &q);
            let mut t = crate::search::ScoreTimings::default();
            let fast = crate::search::score_table(
                &q,
                &lake,
                TableId(0),
                crate::sigma::SigmaSource::Direct(&sim),
                &weights,
                RowAgg::Max,
                &mut t,
                &off,
            )
            .unwrap();
            assert!(
                (fast - ex.score).abs() < 1e-9,
                "explanation diverged for {q:?}: {} vs {fast}",
                ex.score
            );
        }
    }

    #[test]
    fn contributions_rebuild_the_reported_score() {
        let (g, lake, players, teams) = fixture();
        let sim = TypeJaccard::new(&g);
        let inform = Informativeness::uniform();
        for q in [
            Query::single(vec![players[1]]),
            Query::single(vec![teams[2], players[1]]),
            Query::new(vec![vec![players[0], teams[0]], vec![players[2]]]),
        ] {
            let ex = explain(&q, &lake, TableId(0), &sim, &inform);
            let mut mean = 0.0;
            for t in &ex.tuples {
                // Eq. 3 over the per-entity contributions of Eq. 2.
                let rebuilt = 1.0 / (t.weighted_distance() + 1.0);
                assert!(
                    (rebuilt - t.score).abs() < 1e-12,
                    "{rebuilt} vs {}",
                    t.score
                );
                mean += t.score;
            }
            mean /= ex.tuples.len() as f64;
            assert!((mean - ex.score).abs() < 1e-12);
        }
    }

    #[test]
    fn mapped_entities_carry_their_column_relevance() {
        let (g, lake, players, teams) = fixture();
        let sim = TypeJaccard::new(&g);
        let inform = Informativeness::uniform();
        let q = Query::single(vec![players[0], teams[0]]);
        let ex = explain(&q, &lake, TableId(0), &sim, &inform);
        for m in &ex.tuples[0].matches {
            assert!(m.column.is_some());
            // The chosen column contains the exact entity plus same-type
            // neighbors: its relevance strictly exceeds the single best σ.
            assert!(m.column_relevance >= m.similarity);
        }
        assert!(ex.admission.is_none(), "no LSEI was involved");
    }

    #[test]
    fn related_matches_report_partial_similarity() {
        let (g, lake, players, _) = fixture();
        let sim = TypeJaccard::new(&g);
        let inform = Informativeness::uniform();
        // A KG entity of the same type that is NOT in the table.
        let q = Query::single(vec![players[0], players[1], players[2]]);
        let ex = explain(&q, &lake, TableId(0), &sim, &inform);
        let m = &ex.tuples[0].matches;
        // Only one player column exists: one entity gets it (σ=1 for its own
        // row or 0.95 for same-type), the others map elsewhere or nowhere.
        let mapped: Vec<_> = m.iter().filter(|x| x.column.is_some()).collect();
        assert!(!mapped.is_empty());
        for x in m {
            assert!((0.0..=1.0).contains(&x.similarity));
            assert!(x.weight > 0.0);
        }
    }
}
