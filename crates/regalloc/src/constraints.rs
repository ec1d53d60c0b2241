//! What the compiler tells the allocator besides the code: the
//! [`Policy`] that hands out the register pool, and the
//! [`PressureEstimate`] that policy implies for the unroller.
//!
//! The physical facts the policies share — the pool, the spill scratch
//! registers, the link register — are the register conventions in
//! [`patmos_isa`].

use std::fmt;
use std::str::FromStr;

/// Which allocation policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Deterministic linear scan: the lowest-numbered free register,
    /// the furthest-ending spill victim, saves and reloads exactly
    /// where a value crosses a call or a use (the historical allocator,
    /// bit-identical output).
    #[default]
    Linear,
    /// Loop-aware allocation: round-robin assignment inside loops, so
    /// successive iteration-local temporaries get distinct registers
    /// and the modulo scheduler finds no false anti-dependences to
    /// rename; loop-quiet spill victims; caller-saves and reloads of
    /// loop-invariant values hoisted to preheaders.
    Loop,
}

impl Policy {
    /// Stable lowercase name (`linear` / `loop`), as accepted by the
    /// [`FromStr`] impl and printed in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Linear => "linear",
            Policy::Loop => "loop",
        }
    }

    /// The register-pressure estimate the mid-end should use when it
    /// weighs body-widening transforms (partial unrolling) against
    /// spill risk under this policy.
    ///
    /// Linear scan keeps the historical distinct-vreg proxy: eager
    /// reuse plus scratch-mediated spills make every named temporary a
    /// potential extra live value, so the count of distinct registers
    /// in the body is the honest bound. The loop-aware policy assigns
    /// by liveness inside loops, so the *maximum simultaneously live*
    /// count is the real pressure and wide-but-shallow bodies are fine;
    /// its cap leaves four pool registers of headroom for the induction
    /// chain, bound registers and the modulo scheduler's rename pool.
    pub fn pressure_estimate(&self) -> PressureEstimate {
        match self {
            Policy::Linear => PressureEstimate::default(),
            Policy::Loop => PressureEstimate {
                model: PressureModel::MaxLive,
                cap: patmos_isa::ALLOC_POOL.len() - 4,
            },
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "linear" => Ok(Policy::Linear),
            "loop" => Ok(Policy::Loop),
            other => Err(format!(
                "unknown register policy `{other}` (expected `linear` or `loop`)"
            )),
        }
    }
}

/// How a policy sizes register pressure of a candidate loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureModel {
    /// Count distinct virtual registers referenced by the body (the
    /// historical proxy used by the linear-scan policy).
    DistinctVregs,
    /// Count the maximum number of simultaneously live values across
    /// the body (used by the loop-aware policy).
    MaxLive,
}

/// A policy-provided register-pressure estimate: the unroller asks
/// [`PressureEstimate::body_fits`] before replicating a loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureEstimate {
    /// The quantity this estimate compares against the cap.
    pub model: PressureModel,
    /// Largest body pressure considered safe to replicate.
    pub cap: usize,
}

impl PressureEstimate {
    /// The body-pressure figure this model looks at.
    pub fn pressure(&self, distinct_vregs: usize, max_live: usize) -> usize {
        match self.model {
            PressureModel::DistinctVregs => distinct_vregs,
            PressureModel::MaxLive => max_live,
        }
    }

    /// Whether a body with the given measurements is safe to replicate.
    pub fn body_fits(&self, distinct_vregs: usize, max_live: usize) -> bool {
        self.pressure(distinct_vregs, max_live) <= self.cap
    }
}

impl Default for PressureEstimate {
    /// The linear-scan estimate: at most 16 distinct registers.
    fn default() -> Self {
        PressureEstimate {
            model: PressureModel::DistinctVregs,
            cap: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in [Policy::Linear, Policy::Loop] {
            assert_eq!(p.name().parse::<Policy>(), Ok(p));
        }
        assert!("greedy".parse::<Policy>().is_err());
    }

    #[test]
    fn pressure_models_diverge_on_wide_shallow_bodies() {
        let linear = Policy::Linear.pressure_estimate();
        let loops = Policy::Loop.pressure_estimate();
        assert_eq!(loops.cap, 18, "pool of 22 less four registers of headroom");
        // A body naming 20 registers of which at most 10 are live at
        // once: the proxy refuses it, the liveness model accepts it.
        assert!(!linear.body_fits(20, 10));
        assert!(loops.body_fits(20, 10));
        // Both refuse genuinely deep bodies.
        assert!(!loops.body_fits(30, 24));
    }
}
