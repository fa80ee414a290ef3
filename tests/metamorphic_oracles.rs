//! Cross-crate metamorphic oracles.
//!
//! Four relations that must hold across the stack, checked on generated
//! inputs via `swarm-testkit`:
//!
//! * swarm metrics are invariant under permuting the drone array;
//! * SVG centrality scores (every [`CentralityKind`]) permute along with a
//!   node relabeling, and [`SvgAnalysis::pair_influence`] is relabeling-
//!   consistent;
//! * a spoofing attack with zero deviation produces a mission outcome
//!   bit-identical to running with no attack at all;
//! * the campaign journal codec round-trips arbitrary rows (hostile floats
//!   and strings included) to identity, and re-encodes them to the same
//!   bytes.

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_graph::centrality::{eigenvector, pagerank, weighted_degree, Direction, PageRankConfig};
use swarm_graph::paths::{betweenness, closeness};
use swarm_graph::DiGraph;
use swarm_math::Vec3;
use swarm_sim::spoof::{SpoofDirection, SpoofingAttack};
use swarm_sim::{metrics, DroneId, Simulation};
use swarm_testkit::domain::{delivery_mission, journal_row, spoof_direction, vec3_in};
use swarm_testkit::metamorphic::{apply_permutation, rel_close, vec3_close};
use swarm_testkit::{check, check_budgeted, gens, Gen};
use swarmfuzz::store::{decode_row, encode_row};
use swarmfuzz::svg::SvgAnalysis;
use swarmfuzz::CentralityKind;

/// Positions plus a permutation of their indices.
fn positions_and_permutation() -> Gen<(Vec<Vec3>, Vec<usize>)> {
    gens::vec_of(&vec3_in(200.0), 1..=12).flat_map(|positions| {
        gens::permutation(positions.len()).map(move |perm| (positions.clone(), perm))
    })
}

#[test]
fn swarm_metrics_are_permutation_invariant() {
    check("metrics-permutation-invariance", &positions_and_permutation(), |(positions, perm)| {
        let shuffled = apply_permutation(positions, perm);
        // The minimum reduces over per-pair distances that are identical in
        // either order, so it must match exactly. Everything built on a sum
        // (means, the centre of mass, and the extent, whose reference point
        // is the centre of mass) reorders its additions, so those compare
        // with a tight relative tolerance.
        if metrics::min_inter_distance(positions) != metrics::min_inter_distance(&shuffled) {
            return Err("min_inter_distance changed under permutation".into());
        }
        let close = |a: Option<f64>, b: Option<f64>, what: &str| match (a, b) {
            (None, None) => Ok(()),
            (Some(a), Some(b)) if rel_close(a, b, 1e-9) => Ok(()),
            (a, b) => Err(format!("{what} changed under permutation: {a:?} vs {b:?}")),
        };
        close(metrics::swarm_extent(positions), metrics::swarm_extent(&shuffled), "swarm_extent")?;
        close(
            metrics::mean_inter_distance(positions),
            metrics::mean_inter_distance(&shuffled),
            "mean_inter_distance",
        )?;
        close(
            metrics::velocity_correlation(positions),
            metrics::velocity_correlation(&shuffled),
            "velocity_correlation",
        )?;
        match (metrics::center_of_mass(positions), metrics::center_of_mass(&shuffled)) {
            (None, None) => Ok(()),
            (Some(a), Some(b)) if vec3_close(a, b, 1e-9) => Ok(()),
            (a, b) => Err(format!("center_of_mass changed under permutation: {a:?} vs {b:?}")),
        }
    });
}

/// Relabels `graph` so that new node `i` is old node `perm[i]`.
fn relabel(graph: &DiGraph, perm: &[usize]) -> DiGraph {
    let mut inverse = vec![0usize; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inverse[old] = new;
    }
    let mut out = DiGraph::new(graph.node_count());
    for e in graph.edges() {
        out.add_edge(inverse[e.from], inverse[e.to], e.weight).expect("relabeled endpoints");
    }
    out
}

fn scores(graph: &DiGraph, kind: CentralityKind) -> Vec<f64> {
    // Mirrors the scoring the SVG builder applies per centrality ablation.
    match kind {
        CentralityKind::PageRank => pagerank(graph, &PageRankConfig::default()),
        CentralityKind::Degree => weighted_degree(graph, Direction::Incoming),
        CentralityKind::Eigenvector => eigenvector(graph, 200, 1e-10),
        CentralityKind::Closeness => closeness(&graph.transposed()),
        CentralityKind::Betweenness => betweenness(graph),
    }
}

#[test]
fn svg_scores_are_drone_relabeling_equivariant() {
    let gen = swarm_testkit::domain::digraph(2..=9, 24, 0.05, 2.0).flat_map(|graph| {
        gens::permutation(graph.node_count()).map(move |perm| (graph.clone(), perm))
    });
    check("svg-score-relabeling-equivariance", &gen, |(graph, perm)| {
        let relabeled = relabel(graph, perm);
        for kind in [
            CentralityKind::PageRank,
            CentralityKind::Degree,
            CentralityKind::Eigenvector,
            CentralityKind::Closeness,
            CentralityKind::Betweenness,
        ] {
            // New node `i` is old node `perm[i]`, so the relabeled scores
            // must equal the old scores permuted the same way.
            let expected = apply_permutation(&scores(graph, kind), perm);
            let got = scores(&relabeled, kind);
            for (node, (&a, &b)) in expected.iter().zip(&got).enumerate() {
                if !rel_close(a, b, 1e-6) {
                    return Err(format!(
                        "{kind:?}: score of relabeled node {node} is {b}, expected {a}"
                    ));
                }
            }
        }
        Ok(())
    });
}

#[test]
fn pair_influence_is_relabeling_consistent() {
    let gen = swarm_testkit::domain::digraph(2..=9, 24, 0.05, 2.0).flat_map(|graph| {
        gens::permutation(graph.node_count()).map(move |perm| (graph.clone(), perm))
    });
    check("svg-pair-influence-relabeling", &gen, |(graph, perm)| {
        let analysis = SvgAnalysis {
            graph: graph.clone(),
            target_scores: scores(graph, CentralityKind::PageRank),
            victim_scores: scores(&graph.transposed(), CentralityKind::PageRank),
            t_clo: 0.0,
            direction: SpoofDirection::Right,
        };
        let relabeled_graph = relabel(graph, perm);
        let relabeled = SvgAnalysis {
            target_scores: apply_permutation(&analysis.target_scores, perm),
            victim_scores: apply_permutation(&analysis.victim_scores, perm),
            graph: relabeled_graph,
            t_clo: 0.0,
            direction: SpoofDirection::Right,
        };
        let n = graph.node_count();
        for new_t in 0..n {
            for new_v in 0..n {
                if new_t == new_v {
                    continue;
                }
                let a = analysis.pair_influence(DroneId(perm[new_t]), DroneId(perm[new_v]));
                let b = relabeled.pair_influence(DroneId(new_t), DroneId(new_v));
                if !rel_close(a, b, 1e-9) {
                    return Err(format!(
                        "pair_influence({}, {}) = {a} but relabeled \
                         pair_influence({new_t}, {new_v}) = {b}",
                        perm[new_t], perm[new_v]
                    ));
                }
            }
        }
        Ok(())
    });
}

#[test]
fn zero_deviation_attack_is_bit_identical_to_baseline() {
    let gen = gens::zip3(
        &delivery_mission(2..=4),
        &gens::zip2(&gens::usize_in(0..=3), &spoof_direction()),
        &gens::zip2(&gens::f64_in(0.0, 5.0), &gens::f64_in(0.0, 10.0)),
    );
    // Each case runs two full missions; keep the budget small per push.
    check_budgeted(
        "zero-deviation-equals-baseline",
        (swarm_testkit::cases() / 16).max(3),
        &gen,
        |(spec, (target, direction), (start, duration))| {
            let mut spec = spec.clone();
            spec.duration = 6.0;
            let target = DroneId(target % spec.swarm_size);
            let attack = SpoofingAttack::new(target, *direction, *start, *duration, 0.0)
                .map_err(|e| format!("zero-deviation attack rejected: {e}"))?;
            let controller = VasarhelyiController::new(VasarhelyiParams::default());
            let sim = Simulation::new(spec, controller).map_err(|e| e.to_string())?;
            let baseline = sim.run(None).map_err(|e| e.to_string())?;
            let spoofed = sim.run(Some(&attack)).map_err(|e| e.to_string())?;
            if baseline != spoofed {
                return Err(format!(
                    "zero-amplitude attack {attack:?} perturbed the mission: \
                     collisions {:?} vs {:?}",
                    baseline.record.collisions(),
                    spoofed.record.collisions()
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn journal_rows_round_trip_to_identity() {
    check("journal-row-round-trip", &journal_row(), |row| {
        let line = encode_row(row);
        let decoded =
            decode_row(line.trim_end()).map_err(|e| format!("decode failed on {line:?}: {e}"))?;
        if &decoded != row {
            return Err(format!("round trip drifted:\n  in:  {row:?}\n  out: {decoded:?}"));
        }
        let again = encode_row(&decoded);
        if again != line {
            return Err(format!("re-encoding changed the bytes:\n  {line:?}\n  {again:?}"));
        }
        Ok(())
    });
}
