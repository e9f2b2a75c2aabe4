//! Incremental publication — the record-insertion advantage the paper
//! claims for data perturbation (Section 3.1).
//!
//! "Data perturbation is more amenable to record insertion because each
//! record is perturbed independently and the reconstruction is performed
//! by the user himself. In contrast, updating (published) noisy query
//! answers can be tricky."
//!
//! A [`LiveGroup`] runs both per-group steps of that claim:
//! [`LiveGroup::insert`] perturbs one arriving record (one coin,
//! independent of everything else), counts it in the raw and published
//! histograms and re-evaluates the group's `(λ, δ)` status, and
//! [`LiveGroup::republish`] re-samples a group that grew past its
//! threshold `sg` through SPS — the paper's remedy — leaving every other
//! group untouched. The live groups of one release are served by the
//! streaming subsystem of `rp-engine` (`StreamPublisher` over
//! `LiveGroups`), which keeps them in a key-ordered map and drives each
//! with its own RNG.

use rand::Rng;

use crate::perturb::UniformPerturbation;
use crate::privacy::{max_group_size, PrivacyParams};
use crate::sps::sps_group;

/// Compliance status of one live personal group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupStatus {
    /// `|g| <= sg`: plain perturbation of the group is compliant.
    Compliant,
    /// `|g| > sg`: the group needs (re-)sampling before release.
    NeedsResampling,
}

/// One live personal group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveGroup {
    /// Key over the public attributes.
    pub key: Vec<u32>,
    /// Raw SA histogram (owner-side secret state).
    pub raw_hist: Vec<u64>,
    /// Published (perturbed) SA histogram.
    pub published_hist: Vec<u64>,
    /// Current compliance status.
    pub status: GroupStatus,
    /// Raw records covered by the last SPS re-publication (0 if the group
    /// was never sampled). Compliance is evaluated on the *tail* of
    /// records inserted since: the sampled prefix is private by design
    /// (the sample size *is* `sg`), so only the plainly-perturbed tail
    /// counts against the group-size threshold.
    pub republished_len: u64,
}

impl LiveGroup {
    /// An empty, compliant group under `key` over an SA domain of size
    /// `m`.
    pub fn new(key: Vec<u32>, m: usize) -> Self {
        Self {
            key,
            raw_hist: vec![0; m],
            published_hist: vec![0; m],
            status: GroupStatus::Compliant,
            republished_len: 0,
        }
    }

    /// Raw group size (histogram counts sum to `u64`; a `usize` cast
    /// could overflow on 32-bit targets by construction, so the sum is
    /// returned as-is).
    pub fn len(&self) -> u64 {
        self.raw_hist.iter().sum::<u64>()
    }

    /// Whether the group holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts one record with sensitive code `sa`: perturbs it with one
    /// draw of `op`, counts it in both histograms and re-evaluates the
    /// group against `params`. Returns the status after the insertion —
    /// discarding it silently drops the paper's remedy, hence
    /// `#[must_use]`.
    ///
    /// # Panics
    ///
    /// Panics if `sa` is outside the SA domain.
    #[must_use = "a NeedsResampling status requires re-publishing the group through SPS"]
    pub fn insert<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        op: &UniformPerturbation,
        params: PrivacyParams,
        sa: u32,
    ) -> GroupStatus {
        let m = op.domain_size();
        assert!((sa as usize) < m, "SA code {sa} out of domain {m}");
        let perturbed = op.perturb_code(rng, sa);
        self.raw_hist[sa as usize] += 1;
        self.published_hist[perturbed as usize] += 1;
        self.status = self.evaluate(op, params);
        self.status
    }

    fn evaluate(&self, op: &UniformPerturbation, params: PrivacyParams) -> GroupStatus {
        let size = self.len();
        let exposed = size.saturating_sub(self.republished_len);
        if exposed == 0 {
            return GroupStatus::Compliant;
        }
        // The threshold is evaluated on the records inserted since the
        // last SPS re-publication (the sampled prefix is private by
        // design), with the whole-group maximum frequency as the
        // conservative `f` — the tail of a skewed group never gets a
        // laxer threshold than the group itself.
        let f = *self.raw_hist.iter().max().expect("non-empty") as f64 / size as f64;
        let sg = max_group_size(params, op.retention(), op.domain_size(), f);
        if exposed as f64 <= sg {
            GroupStatus::Compliant
        } else {
            GroupStatus::NeedsResampling
        }
    }

    /// Re-publishes the group through the SPS steps (sample to `sg`,
    /// perturb, scale back), replacing its published histogram. Leaves the
    /// raw state untouched and returns the new status (always
    /// [`GroupStatus::Compliant`] — the sample size *is* the design). An
    /// empty group draws nothing.
    pub fn republish<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        op: &UniformPerturbation,
        params: PrivacyParams,
    ) -> GroupStatus {
        let size = self.len();
        if size == 0 {
            return GroupStatus::Compliant;
        }
        let sample = sps_group(rng, op, params, &self.raw_hist, &mut self.published_hist);
        // A sample covers every current record, so only records inserted
        // after this point count against `sg` again. A whole-group
        // perturbation exposes the whole group through plain UP again, so
        // the sampled-prefix baseline resets.
        self.republished_len = if sample.is_some() { size } else { 0 };
        self.status = GroupStatus::Compliant;
        GroupStatus::Compliant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `p = 0.5` over a binary SA, demanding `(0.3, 0.3)`.
    fn op() -> UniformPerturbation {
        UniformPerturbation::new(0.5, 2)
    }

    fn params() -> PrivacyParams {
        PrivacyParams::new(0.3, 0.3)
    }

    fn insert(g: &mut LiveGroup, rng: &mut StdRng, sa: u32) -> GroupStatus {
        g.insert(rng, &op(), params(), sa)
    }

    /// Re-publishes `g` if it is flagged; returns whether it was.
    fn republish_flagged(g: &mut LiveGroup, rng: &mut StdRng) -> bool {
        let flagged = g.status == GroupStatus::NeedsResampling;
        if flagged {
            g.republish(rng, &op(), params());
        }
        flagged
    }

    #[test]
    fn small_groups_stay_compliant() {
        let mut g = LiveGroup::new(vec![0], 2);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..50u32 {
            let status = insert(&mut g, &mut rng, i % 2);
            assert_eq!(status, GroupStatus::Compliant);
        }
        assert_eq!(g.len(), 50);
        assert_eq!(g.published_hist.iter().sum::<u64>(), 50);
    }

    /// A group within `sg` re-publishes as plain perturbation, which
    /// exposes every record again: no sampled prefix is recorded.
    #[test]
    fn republishing_a_group_within_sg_keeps_no_sampled_prefix() {
        let mut g = LiveGroup::new(vec![0], 2);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..10u32 {
            assert_eq!(insert(&mut g, &mut rng, i % 2), GroupStatus::Compliant);
        }
        assert_eq!(
            g.republish(&mut rng, &op(), params()),
            GroupStatus::Compliant
        );
        assert_eq!(g.republished_len, 0);
        assert_eq!(g.raw_hist, vec![5, 5]);
    }

    #[test]
    fn growth_past_sg_flags_the_group() {
        let mut g = LiveGroup::new(vec![1], 2);
        let mut rng = StdRng::seed_from_u64(2);
        // f = 0.7 at p = 0.5, m = 2 gives sg ≈ 131: push past it.
        let mut flagged_at = None;
        for i in 0..500u32 {
            let sa = u32::from(i % 10 >= 7);
            if insert(&mut g, &mut rng, sa) == GroupStatus::NeedsResampling && flagged_at.is_none()
            {
                flagged_at = Some(i);
            }
        }
        let at = flagged_at.expect("group must eventually violate");
        assert!(
            (100..200).contains(&at),
            "flagged at {at}, expected near sg ≈ 131"
        );
        assert_eq!(g.status, GroupStatus::NeedsResampling);
    }

    #[test]
    fn republish_restores_compliance_and_size() {
        let mut g = LiveGroup::new(vec![0], 2);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..1000u32 {
            let _ = insert(&mut g, &mut rng, u32::from(i % 10 >= 7));
        }
        assert_eq!(g.status, GroupStatus::NeedsResampling);
        assert!(republish_flagged(&mut g, &mut rng));
        assert_eq!(g.status, GroupStatus::Compliant);
        // Scaling restores the group's published size near the raw size.
        let published: u64 = g.published_hist.iter().sum();
        assert!(
            (published as f64 - 1000.0).abs() < 80.0,
            "published {published}"
        );
        // Raw state untouched.
        assert_eq!(g.len(), 1000);
    }

    #[test]
    fn other_groups_untouched_by_republish() {
        let mut skewed = LiveGroup::new(vec![0], 2);
        let mut other = LiveGroup::new(vec![1], 2);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..1000u32 {
            let _ = insert(&mut skewed, &mut rng, u32::from(i % 10 >= 7));
        }
        for i in 0..20u32 {
            let _ = insert(&mut other, &mut rng, i % 2);
        }
        let before = other.published_hist.clone();
        assert!(republish_flagged(&mut skewed, &mut rng));
        assert!(!republish_flagged(&mut other, &mut rng));
        assert_eq!(other.published_hist, before);
    }

    #[test]
    fn balanced_groups_tolerate_more_records() {
        // f = 0.5 has a larger sg (≈ 214) than f = 0.9 (≈ 93) — at 150
        // records only the skewed group may be flagged.
        let mut balanced = LiveGroup::new(vec![0], 2);
        let mut skewed = LiveGroup::new(vec![1], 2);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..150u32 {
            let _ = insert(&mut balanced, &mut rng, i % 2);
            let _ = insert(&mut skewed, &mut rng, u32::from(i % 10 == 0)); // 90/10 skew
        }
        assert_eq!(skewed.status, GroupStatus::NeedsResampling);
        assert_eq!(balanced.status, GroupStatus::Compliant);
    }

    #[test]
    fn published_histogram_is_unbiased_for_compliant_groups() {
        let runs = 400;
        let mut total = [0u64; 2];
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..runs {
            let mut g = LiveGroup::new(vec![0], 2);
            for i in 0..80u32 {
                let _ = insert(&mut g, &mut rng, u32::from(i % 4 == 0)); // f0 = 0.75
            }
            total[0] += g.published_hist[0];
            total[1] += g.published_hist[1];
        }
        // E[O*_1] = 80·(0.25·0.5 + 0.25) = 30.
        let mean1 = total[1] as f64 / runs as f64;
        assert!((mean1 - 30.0).abs() < 1.5, "mean {mean1}");
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_sa_rejected() {
        let mut g = LiveGroup::new(vec![0], 2);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = insert(&mut g, &mut rng, 5);
    }

    #[test]
    fn republished_group_flags_again_only_when_the_tail_crosses_sg() {
        let mut g = LiveGroup::new(vec![0], 2);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..1000u32 {
            let _ = insert(&mut g, &mut rng, u32::from(i % 10 >= 7));
        }
        assert!(republish_flagged(&mut g, &mut rng));
        assert_eq!(g.republished_len, 1000);
        assert_eq!(g.len(), g.republished_len, "no record is exposed");
        // The sampled prefix is covered: the next insert must NOT
        // immediately re-flag the group...
        assert_eq!(
            insert(&mut g, &mut rng, 0),
            GroupStatus::Compliant,
            "one fresh record cannot violate"
        );
        // ...but a tail of fresh records that itself crosses sg must.
        let mut reflagged_at = None;
        for i in 0..500u32 {
            if insert(&mut g, &mut rng, u32::from(i % 10 >= 7)) == GroupStatus::NeedsResampling {
                reflagged_at = Some(i);
                break;
            }
        }
        let at = reflagged_at.expect("the tail must eventually violate");
        assert!(
            (100..300).contains(&at),
            "re-flagged after {at} fresh records, expected near sg"
        );
    }
}
