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
//! group untouched. [`IncrementalPublisher`] keeps the live groups of one
//! publication in a key-ordered map and drives them with a single RNG;
//! the streaming subsystem of `rp-engine` drives the same two steps with
//! one RNG per group.

use std::collections::BTreeMap;

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

    /// Records inserted since the last SPS re-publication — the subset
    /// whose plain perturbation the `(λ, δ)` criterion is tested on.
    pub fn exposed_len(&self) -> u64 {
        self.len().saturating_sub(self.republished_len)
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

/// A live reconstruction-private publication accepting record insertions.
#[derive(Debug, Clone)]
pub struct IncrementalPublisher {
    op: UniformPerturbation,
    params: PrivacyParams,
    groups: BTreeMap<Vec<u32>, LiveGroup>,
    inserted: u64,
}

impl IncrementalPublisher {
    /// Creates an empty publisher for SA domain size `m`, retention `p`
    /// and privacy demand `params`.
    ///
    /// # Panics
    ///
    /// Panics on invalid `(p, m)` (see [`UniformPerturbation::new`]).
    pub fn new(p: f64, m: usize, params: PrivacyParams) -> Self {
        Self {
            op: UniformPerturbation::new(p, m),
            params,
            groups: BTreeMap::new(),
            inserted: 0,
        }
    }

    /// Inserts one record: `key` is its public-attribute codes, `sa` its
    /// sensitive code. The record is perturbed immediately and added to
    /// its group ([`LiveGroup::insert`]). Returns the group's status
    /// *after* the insertion — discarding it silently drops the paper's
    /// remedy (a flagged group must be re-sampled before release), hence
    /// `#[must_use]`.
    ///
    /// # Panics
    ///
    /// Panics if `sa` is outside the SA domain.
    #[must_use = "a NeedsResampling status requires re-publishing the group through SPS"]
    pub fn insert<R: Rng + ?Sized>(&mut self, rng: &mut R, key: &[u32], sa: u32) -> GroupStatus {
        self.inserted += 1;
        self.groups
            .entry(key.to_vec())
            .or_insert_with(|| LiveGroup::new(key.to_vec(), self.op.domain_size()))
            .insert(rng, &self.op, self.params, sa)
    }

    /// Re-publishes one group through SPS ([`LiveGroup::republish`]) and
    /// returns its new status (always [`GroupStatus::Compliant`]).
    ///
    /// # Panics
    ///
    /// Panics if `key` is unknown.
    pub fn republish_group<R: Rng + ?Sized>(&mut self, rng: &mut R, key: &[u32]) -> GroupStatus {
        self.groups
            .get_mut(key)
            .unwrap_or_else(|| panic!("unknown group key {key:?}"))
            .republish(rng, &self.op, self.params)
    }

    /// Re-publishes every group currently flagged
    /// [`GroupStatus::NeedsResampling`], in key order (so the RNG draws
    /// follow the keys); returns how many were fixed.
    pub fn republish_flagged<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let mut fixed = 0;
        for group in self.groups.values_mut() {
            if group.status == GroupStatus::NeedsResampling {
                group.republish(rng, &self.op, self.params);
                fixed += 1;
            }
        }
        fixed
    }

    /// Records inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Number of live groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Looks up a live group by key.
    pub fn group(&self, key: &[u32]) -> Option<&LiveGroup> {
        self.groups.get(key)
    }

    /// Iterates over all live groups in key order.
    pub fn groups(&self) -> impl Iterator<Item = &LiveGroup> {
        self.groups.values()
    }

    /// Groups currently flagged for resampling, in key order.
    pub fn flagged(&self) -> impl Iterator<Item = &LiveGroup> {
        self.groups
            .values()
            .filter(|g| g.status == GroupStatus::NeedsResampling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn publisher() -> IncrementalPublisher {
        IncrementalPublisher::new(0.5, 2, PrivacyParams::new(0.3, 0.3))
    }

    #[test]
    fn small_groups_stay_compliant() {
        let mut p = publisher();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..50u32 {
            let status = p.insert(&mut rng, &[0], i % 2);
            assert_eq!(status, GroupStatus::Compliant);
        }
        assert_eq!(p.inserted(), 50);
        assert_eq!(p.group_count(), 1);
        let g = p.group(&[0]).unwrap();
        assert_eq!(g.len(), 50);
        assert_eq!(g.published_hist.iter().sum::<u64>(), 50);
    }

    #[test]
    fn growth_past_sg_flags_the_group() {
        let mut p = publisher();
        let mut rng = StdRng::seed_from_u64(2);
        // f = 0.7 at p = 0.5, m = 2 gives sg ≈ 131: push past it.
        let mut flagged_at = None;
        for i in 0..500u32 {
            let sa = u32::from(i % 10 >= 7);
            if p.insert(&mut rng, &[1], sa) == GroupStatus::NeedsResampling && flagged_at.is_none()
            {
                flagged_at = Some(i);
            }
        }
        let at = flagged_at.expect("group must eventually violate");
        assert!(
            (100..200).contains(&at),
            "flagged at {at}, expected near sg ≈ 131"
        );
        assert_eq!(p.flagged().count(), 1);
    }

    #[test]
    fn republish_restores_compliance_and_size() {
        let mut p = publisher();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..1000u32 {
            let _ = p.insert(&mut rng, &[0], u32::from(i % 10 >= 7));
        }
        assert_eq!(p.group(&[0]).unwrap().status, GroupStatus::NeedsResampling);
        let fixed = p.republish_flagged(&mut rng);
        assert_eq!(fixed, 1);
        let g = p.group(&[0]).unwrap();
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
        let mut p = publisher();
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..1000u32 {
            let _ = p.insert(&mut rng, &[0], u32::from(i % 10 >= 7));
        }
        for i in 0..20u32 {
            let _ = p.insert(&mut rng, &[1], i % 2);
        }
        let before = p.group(&[1]).unwrap().published_hist.clone();
        p.republish_flagged(&mut rng);
        assert_eq!(p.group(&[1]).unwrap().published_hist, before);
    }

    #[test]
    fn balanced_groups_tolerate_more_records() {
        // f = 0.5 has a larger sg (≈ 214) than f = 0.9 (≈ 93) — at 150
        // records the publisher must have flagged only the skewed group.
        let mut p = publisher();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..150u32 {
            let _ = p.insert(&mut rng, &[0], i % 2); // balanced
            let _ = p.insert(&mut rng, &[1], u32::from(i % 10 == 0)); // 90/10 skew
        }
        let balanced = p.group(&[0]).unwrap().status;
        let skewed = p.group(&[1]).unwrap().status;
        assert_eq!(skewed, GroupStatus::NeedsResampling);
        assert_eq!(balanced, GroupStatus::Compliant);
    }

    #[test]
    fn published_histogram_is_unbiased_for_compliant_groups() {
        let runs = 400;
        let mut total = [0u64; 2];
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..runs {
            let mut p = publisher();
            for i in 0..80u32 {
                let _ = p.insert(&mut rng, &[0], u32::from(i % 4 == 0)); // f0 = 0.75
            }
            let g = p.group(&[0]).unwrap();
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
        let mut p = publisher();
        let mut rng = StdRng::seed_from_u64(7);
        let _ = p.insert(&mut rng, &[0], 5);
    }

    #[test]
    fn republished_group_flags_again_only_when_the_tail_crosses_sg() {
        let mut p = publisher();
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..1000u32 {
            let _ = p.insert(&mut rng, &[0], u32::from(i % 10 >= 7));
        }
        assert_eq!(p.republish_flagged(&mut rng), 1);
        let g = p.group(&[0]).unwrap();
        assert_eq!(g.republished_len, 1000);
        assert_eq!(g.exposed_len(), 0);
        // The sampled prefix is covered: the next insert must NOT
        // immediately re-flag the group...
        assert_eq!(
            p.insert(&mut rng, &[0], 0),
            GroupStatus::Compliant,
            "one fresh record cannot violate"
        );
        // ...but a tail of fresh records that itself crosses sg must.
        let mut reflagged_at = None;
        for i in 0..500u32 {
            if p.insert(&mut rng, &[0], u32::from(i % 10 >= 7)) == GroupStatus::NeedsResampling {
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

    #[test]
    #[should_panic(expected = "unknown group key")]
    fn republish_unknown_group_panics() {
        let mut p = publisher();
        let mut rng = StdRng::seed_from_u64(8);
        p.republish_group(&mut rng, &[9, 9]);
    }
}
