//! Output checks. Every comparison is bit-exact: a result matches its
//! oracle only if every name, status, message and `f64` bit pattern
//! agrees. A typed error the oracle also returns is a correct answer.

use xlda_core::evaluate::Evaluation;
use xlda_core::fom::Candidate;
use xlda_core::triage::{rank, Objective};
use xlda_core::XldaError;
use xlda_num::batch::{CandidateBatch, PointStatus};
use xlda_serve::json::Json;

/// One candidate lane: its name and the bit patterns of latency, energy,
/// area and accuracy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lane {
    pub name: String,
    pub bits: [u64; 4],
}

/// What one design point evaluated to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Lanes(Vec<Lane>),
    /// A typed error, by its `Display` text.
    Failed(String),
    /// A contained panic or a skipped point: never correct.
    Broken(String),
}

fn lane(c: &Candidate) -> Lane {
    Lane {
        name: c.name.clone(),
        bits: [
            c.fom.latency_s.to_bits(),
            c.fom.energy_j.to_bits(),
            c.fom.area_mm2.to_bits(),
            c.fom.accuracy.to_bits(),
        ],
    }
}

/// Point `p` of a swept batch.
pub fn from_batch(b: &CandidateBatch, p: usize) -> Answer {
    let msg = || b.point_message(p).unwrap_or_default().to_string();
    match b.point_status(p) {
        PointStatus::Ok => Answer::Lanes(
            b.lane_range(p)
                .map(|i| Lane {
                    name: b.lane_name(i).to_string(),
                    bits: [
                        b.latency_s()[i].to_bits(),
                        b.energy_j()[i].to_bits(),
                        b.area_mm2()[i].to_bits(),
                        b.accuracy()[i].to_bits(),
                    ],
                })
                .collect(),
        ),
        PointStatus::Error => Answer::Failed(msg()),
        PointStatus::Panicked | PointStatus::DeadlineExceeded => Answer::Broken(msg()),
    }
}

/// The scalar oracle's answer for one point.
pub fn from_result(r: &Result<Vec<Candidate>, XldaError>) -> Answer {
    match r {
        Ok(cands) => Answer::Lanes(cands.iter().map(lane).collect()),
        Err(e) => Answer::Failed(e.to_string()),
    }
}

/// Whether a swept answer is correct against its oracle.
pub fn agrees(got: &Answer, want: &Answer) -> bool {
    !matches!(got, Answer::Broken(_)) && got == want
}

/// FNV-1a over an answer's lanes: the checksum the MC check reports.
pub fn checksum(a: &Answer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    match a {
        Answer::Lanes(ls) => {
            for l in ls {
                eat(l.name.as_bytes());
                for w in l.bits {
                    eat(&w.to_le_bytes());
                }
            }
        }
        Answer::Failed(m) | Answer::Broken(m) => eat(m.as_bytes()),
    }
    h
}

/// What the library says a serve request must answer.
pub enum Expected {
    /// An evaluation request (`hdc`, `mann`, `edge`, `tpu_nvm`,
    /// `triage`, `*_mc`), optionally ranked.
    Eval {
        kind: &'static str,
        result: Result<Evaluation, XldaError>,
        ranking: Option<Objective>,
    },
    /// A full-mode `refine` over `points` ranked under `objective`.
    Refine {
        points: Vec<(String, Result<Evaluation, XldaError>)>,
        objective: Objective,
    },
}

fn num_bits(v: Option<&Json>) -> Option<u64> {
    v.and_then(Json::as_f64).map(f64::to_bits)
}

fn check_candidates(got: Option<&Json>, want: &[Candidate]) -> Result<(), String> {
    let got = got.and_then(Json::as_arr).ok_or("missing candidates")?;
    if got.len() != want.len() {
        return Err(format!("{} candidates, want {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        let l = lane(w);
        let name = g.get("name").and_then(Json::as_str);
        let bits = [
            num_bits(g.get("latency_s")),
            num_bits(g.get("energy_j")),
            num_bits(g.get("area_mm2")),
            num_bits(g.get("accuracy")),
        ];
        if name != Some(l.name.as_str()) || bits != l.bits.map(Some) {
            return Err(format!("candidate {:?} differs", l.name));
        }
    }
    Ok(())
}

fn check_distributions(got: Option<&Json>, want: &Evaluation) -> Result<(), String> {
    if want.distributions.is_empty() {
        return match got {
            None => Ok(()),
            Some(_) => Err("unexpected distributions".into()),
        };
    }
    let got = got.and_then(Json::as_arr).ok_or("missing distributions")?;
    let got: Vec<&str> = got
        .iter()
        .filter_map(|d| d.get("checksum").and_then(Json::as_str))
        .collect();
    let want: Vec<String> = want
        .distributions
        .iter()
        .map(|d| format!("{:016x}", d.checksum))
        .collect();
    if got != want {
        return Err("distribution checksums differ".into());
    }
    Ok(())
}

fn check_ranking(got: Option<&Json>, cands: &[Candidate], obj: &Objective) -> Result<(), String> {
    let got = got.and_then(Json::as_arr).ok_or("missing ranking")?;
    let want = rank(cands, obj);
    if got.len() != want.len() {
        return Err("ranking length differs".into());
    }
    for (g, w) in got.iter().zip(&want) {
        if g.get("name").and_then(Json::as_str) != Some(w.name.as_str())
            || num_bits(g.get("score")) != Some(w.score.to_bits())
            || g.get("meets_floor").and_then(Json::as_bool) != Some(w.meets_floor)
        {
            return Err(format!("ranking entry {:?} differs", w.name));
        }
    }
    Ok(())
}

fn check_error(v: &Json, e: &XldaError) -> Result<(), String> {
    let code = if e.is_infeasible() {
        "infeasible"
    } else {
        "invalid"
    };
    if v.get("ok").and_then(Json::as_bool) != Some(false)
        || v.get("code").and_then(Json::as_str) != Some(code)
        || v.get("error").and_then(Json::as_str) != Some(e.to_string().as_str())
    {
        return Err(format!("want typed error {code}: {e}"));
    }
    Ok(())
}

/// The best candidate of each resolved refine point, best first, ties
/// by grid index: the order a full-mode `refine` ranks its grid in.
fn refine_order(
    points: &[(String, Result<Evaluation, XldaError>)],
    obj: &Objective,
) -> Vec<(usize, String, f64)> {
    let mut scored: Vec<(usize, String, f64)> = points
        .iter()
        .enumerate()
        .filter_map(|(i, (_, r))| {
            let best = rank(&r.as_ref().ok()?.candidates, obj).into_iter().next()?;
            Some((i, best.name, best.score))
        })
        .collect();
    scored.sort_by(|a, b| xlda_core::order::desc_nan_last(a.2, b.2).then(a.0.cmp(&b.0)));
    scored
}

/// Checks one response line against the library's answer.
pub fn check_response(line: &str, want: &Expected) -> Result<(), String> {
    let v = Json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    match want {
        Expected::Eval {
            kind,
            result,
            ranking,
        } => match result {
            Err(e) => check_error(&v, e),
            Ok(ev) => {
                if v.get("ok").and_then(Json::as_bool) != Some(true) {
                    let err = v.get("error").and_then(Json::as_str).unwrap_or("?");
                    return Err(format!("failed response: {err}"));
                }
                if v.get("kind").and_then(Json::as_str) != Some(kind) {
                    return Err(format!("kind differs, want {kind}"));
                }
                check_candidates(v.get("candidates"), &ev.candidates)?;
                check_distributions(v.get("distributions"), ev)?;
                match ranking {
                    Some(obj) => check_ranking(v.get("ranking"), &ev.candidates, obj),
                    None => Ok(()),
                }
            }
        },
        Expected::Refine { points, objective } => {
            if v.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err("failed refine response".into());
            }
            let got = v
                .get("points")
                .and_then(Json::as_arr)
                .ok_or("missing points")?;
            if got.len() != points.len() {
                return Err("refine point count differs".into());
            }
            for (g, (digest, r)) in got.iter().zip(points) {
                if g.get("digest").and_then(Json::as_str) != Some(digest.as_str()) {
                    return Err("refine digest differs".into());
                }
                match r {
                    Ok(ev) => {
                        let status = g.get("status").and_then(Json::as_str);
                        if !matches!(status, Some("cached" | "evaluated")) {
                            return Err(format!("refine status {status:?}"));
                        }
                        check_candidates(g.get("candidates"), &ev.candidates)?;
                        check_distributions(g.get("distributions"), ev)?;
                    }
                    Err(e) => {
                        if g.get("error").and_then(Json::as_str) != Some(e.to_string().as_str()) {
                            return Err("refine error differs".into());
                        }
                    }
                }
            }
            let got = v
                .get("ranking")
                .and_then(Json::as_arr)
                .ok_or("missing ranking")?;
            let want = refine_order(points, objective);
            if got.len() != want.len() {
                return Err("refine ranking length differs".into());
            }
            for (g, (i, name, score)) in got.iter().zip(&want) {
                if g.get("index").and_then(Json::as_usize) != Some(*i)
                    || g.get("name").and_then(Json::as_str) != Some(name.as_str())
                    || num_bits(g.get("score")) != Some(score.to_bits())
                {
                    return Err("refine ranking differs".into());
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlda_core::evaluate::{HdcScenario, Scenario};
    use xlda_core::mc::MannAccuracyMcScenario;
    use xlda_serve::protocol::{candidate_json, distribution_json, ok_response};

    fn push_candidates(b: &mut CandidateBatch, cands: &[Candidate]) {
        for c in cands {
            let id = b.intern(&c.name);
            let f = c.fom;
            b.push_lane(id, f.latency_s, f.energy_j, f.area_mm2, f.accuracy);
        }
        b.close_point();
    }

    fn flip(x: f64) -> f64 {
        f64::from_bits(x.to_bits() ^ 1)
    }

    #[test]
    fn one_flipped_bit_in_a_swept_lane_fails_the_sweep_check() {
        let oracle = HdcScenario::default().candidates();
        let want = from_result(&oracle);
        let mut cands = oracle.expect("default HDC point evaluates");
        let mut b = CandidateBatch::new();
        push_candidates(&mut b, &cands);
        assert!(agrees(&from_batch(&b, 0), &want));

        cands[3].fom.energy_j = flip(cands[3].fom.energy_j);
        let mut bad = CandidateBatch::new();
        push_candidates(&mut bad, &cands);
        assert!(!agrees(&from_batch(&bad, 0), &want));
        assert_ne!(checksum(&from_batch(&bad, 0)), checksum(&want));
    }

    #[test]
    fn a_panicked_point_is_never_correct() {
        let mut b = CandidateBatch::new();
        b.fail_point(PointStatus::Panicked, "boom");
        let got = from_batch(&b, 0);
        assert!(!agrees(&got, &got.clone()));
    }

    fn response(ev: &Evaluation, kind: &'static str) -> String {
        let mut body = vec![(
            "candidates",
            Json::Arr(ev.candidates.iter().map(candidate_json).collect()),
        )];
        if !ev.distributions.is_empty() {
            body.push((
                "distributions",
                Json::Arr(ev.distributions.iter().map(distribution_json).collect()),
            ));
        }
        ok_response("r1", kind, body)
    }

    #[test]
    fn one_flipped_bit_in_a_response_fails_the_serve_check() {
        let mut ev = HdcScenario::default().evaluate().expect("evaluates");
        let want = Expected::Eval {
            kind: "hdc",
            result: Ok(ev.clone()),
            ranking: None,
        };
        assert_eq!(check_response(&response(&ev, "hdc"), &want), Ok(()));
        ev.candidates[0].fom.latency_s = flip(ev.candidates[0].fom.latency_s);
        assert!(check_response(&response(&ev, "hdc"), &want).is_err());
    }

    #[test]
    fn one_flipped_bit_in_a_distribution_fails_the_mc_check() {
        let s = MannAccuracyMcScenario {
            mc: xlda_core::mc::McParams {
                trials: 64,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut ev = s.evaluate().expect("evaluates");
        let want = Expected::Eval {
            kind: "mann_mc",
            result: Ok(ev.clone()),
            ranking: None,
        };
        assert_eq!(check_response(&response(&ev, "mann_mc"), &want), Ok(()));
        ev.distributions[0].checksum ^= 1;
        assert!(check_response(&response(&ev, "mann_mc"), &want).is_err());
    }
}
