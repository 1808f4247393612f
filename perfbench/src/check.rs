//! Independent correctness check of served responses.
//!
//! A served line passes when it is byte-identical (id aside, which must
//! be the expected per-connection sequence number) to
//! `wire::response_json` of the in-process walk, every schedule behind
//! it certifies statically, and every applied transform replays equal to
//! the original on seeds the transform pipeline never used.

use crate::walk::{PieceSchedule, Walk};
use kn_core::ir::{interpret, seeded_external_value, seeded_scalar_init, GuardedAssign};
use kn_core::service::wire;
use kn_core::verify::{certify_loop_hook, certify_timed_hook};
use kn_core::xform::{observable, run_transformed, Transformed};
use std::collections::BTreeSet;

/// The transform pipeline certifies on seeds `0..8`; these are disjoint.
pub const EQUIV_SEEDS: std::ops::Range<u64> = 1000..1008;
/// Iterations of each differential replay (the pipeline's own default).
pub const EQUIV_ITERS: u32 = 48;

/// The expected response of one distinct request, checked once and
/// compared against every served copy.
pub struct Expected {
    pub walk: Walk,
    /// `None` when certification passed.
    pub certify_error: Option<String>,
}

impl Expected {
    pub fn new(walk: Walk) -> Self {
        let certify_error = certify(&walk).err();
        Expected {
            walk,
            certify_error,
        }
    }

    pub fn is_ok(&self) -> bool {
        self.walk.result.is_ok()
    }

    /// Check one served line answering this request under `id`.
    pub fn check(&self, served: &str, id: u64) -> Result<(), String> {
        check_line(served, &wire::response_json(id, &self.walk.result))?;
        match &self.certify_error {
            Some(e) => Err(format!("certification failed: {e}")),
            None => Ok(()),
        }
    }
}

/// Byte comparison of a served line against the expected rendering.
pub fn check_line(served: &str, expected: &str) -> Result<(), String> {
    if served == expected {
        return Ok(());
    }
    let at = served
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(served.len().min(expected.len()));
    Err(format!(
        "response differs from the in-process walk at byte {at}:\n  served:   {served}\n  expected: {expected}"
    ))
}

/// Certify every schedule and transform behind a walk.
pub fn certify(w: &Walk) -> Result<(), String> {
    if let Some(m) = &w.machine {
        for p in &w.pieces {
            match &p.schedule {
                PieceSchedule::Cyclic(s) => certify_loop_hook(&p.graph, m, s)?,
                PieceSchedule::Doacross(d) => certify_timed_hook(&p.graph, m, &d.timing)?,
            }
        }
    }
    if let Some((original, out)) = &w.xform {
        if out.changed() {
            replay_transform(original, &out.transformed)
                .map_err(|m| format!("transform of {} is not equivalent: {m}", out.report.name))?;
        }
    }
    Ok(())
}

/// Run original and transformed programs on [`EQUIV_SEEDS`] and compare
/// their observable memory. A location only one side wrote reads back as
/// its seeded initial value on the other side.
pub fn replay_transform(original: &[GuardedAssign], t: &Transformed) -> Result<(), String> {
    for seed in EQUIV_SEEDS {
        let a = observable(&interpret(original, EQUIV_ITERS, seed), t);
        let b = observable(&run_transformed(t, EQUIV_ITERS, seed), t);
        let arrays: BTreeSet<&(String, i64)> = a.arrays.keys().chain(b.arrays.keys()).collect();
        for k in arrays {
            let init = || seeded_external_value(seed, &k.0, k.1);
            let (va, vb) = (
                a.arrays.get(k).copied().unwrap_or_else(init),
                b.arrays.get(k).copied().unwrap_or_else(init),
            );
            if va != vb {
                return Err(format!("seed {seed}: {}[{}] is {va} vs {vb}", k.0, k.1));
            }
        }
        let scalars: BTreeSet<&String> = a.scalars.keys().chain(b.scalars.keys()).collect();
        for k in scalars {
            let init = || seeded_scalar_init(seed, k);
            let (va, vb) = (
                a.scalars.get(k).copied().unwrap_or_else(init),
                b.scalars.get(k).copied().unwrap_or_else(init),
            );
            if va != vb {
                return Err(format!("seed {seed}: scalar {k} is {va} vs {vb}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::walk::walk;
    use kn_core::service::{execute, wire::parse_request_line, ScheduleRequest};

    fn expected(line: &str) -> (Expected, ScheduleRequest) {
        let parsed = parse_request_line(line).unwrap().unwrap();
        let ScheduleRequest::Loop(r) = &parsed.req else {
            panic!("loop request");
        };
        (Expected::new(walk(r, &mut Tracer::new(false))), parsed.req)
    }

    #[test]
    fn walk_renders_what_execute_renders() {
        for line in [
            "corpus=figure7 iters=300 procs=3 k=2 mm=3 seed=9",
            "corpus=cytron86 iters=250 scheduler=doacross-best link=single",
            "corpus=livermore18 iters=200 scheduler=doacross",
            "corpus=fissionable/twophase iters=128 transform=fission",
            "corpus=reduction/sum iters=64 transform=all",
            "corpus=cytron86 transform=all",
            "corpus=figure7 procs=0",
        ] {
            let (e, req) = expected(line);
            let want = wire::response_json(5, &execute(&req));
            assert_eq!(wire::response_json(5, &e.walk.result), want, "{line}");
            e.check(&want, 5).unwrap_or_else(|m| panic!("{line}: {m}"));
        }
    }

    #[test]
    fn checker_rejects_a_response_with_one_byte_flipped() {
        let (e, req) = expected("corpus=figure7 iters=400 procs=2 k=2");
        let good = wire::response_json(3, &execute(&req));
        e.check(&good, 3).expect("the true response passes");
        for at in [0, good.len() / 3, good.len() / 2, good.len() - 1] {
            let mut bytes = good.clone().into_bytes();
            bytes[at] ^= 0x01;
            let bad = String::from_utf8(bytes).expect("ascii stays utf-8");
            assert!(e.check(&bad, 3).is_err(), "flip at byte {at} must fail");
        }
        assert!(e.check(&good, 4).is_err(), "a wrong id fails");
    }

    #[test]
    fn applied_transforms_pass_the_disjoint_seed_replay() {
        for line in [
            "corpus=fissionable/islands iters=64 transform=all",
            "corpus=reduction/max iters=64 transform=reduce",
            "corpus=livermore23 iters=64 transform=fission",
        ] {
            let (e, _) = expected(line);
            assert!(e.certify_error.is_none(), "{line}: {:?}", e.certify_error);
        }
    }

    #[test]
    fn replay_catches_a_broken_transform() {
        use kn_core::xform::{transform_loop, TransformOptions};
        let body = kn_core::workloads::body_by_name("fissionable/twophase").unwrap();
        let original = kn_core::ir::if_convert(&body);
        let out = transform_loop("twophase", &body, &TransformOptions::all()).unwrap();
        assert!(out.changed());
        replay_transform(&original, &out.transformed).expect("the real rewrite is equivalent");
        let mut broken = out.transformed.clone();
        broken.pieces.pop();
        assert!(replay_transform(&original, &broken).is_err());
    }
}
