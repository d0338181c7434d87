//! MIG placement geometry: which partition combinations a single GPU can
//! actually host.
//!
//! An A100 exposes 8 memory slices and 7 compute slices (GPCs). Every MIG
//! profile occupies a contiguous run of memory slices and may only start at
//! certain positions (see [`ProfileSize::allowed_starts`]). This module
//! implements those rules exactly, so the PARIS packing step can only emit
//! configurations a real A100 accepts — e.g. `4g+2g+1g` and `3g+3g` are
//! valid, `4g+4g` and `3g+3g+1g` are not.

use std::fmt;

use crate::profile_size::ProfileSize;

/// Memory slices per GPU (A100: 8).
pub const MEM_SLICES: usize = 8;
/// Compute slices (GPCs) per GPU (A100: 7). Memory slice 7 has no GPC.
pub const COMPUTE_SLICES: usize = 7;

/// Error returned when a set of profiles cannot be placed on one GPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaceProfilesError {
    requested: Vec<ProfileSize>,
}

impl PlaceProfilesError {
    /// The profile multiset that failed to place.
    #[must_use]
    pub fn requested(&self) -> &[ProfileSize] {
        &self.requested
    }
}

impl fmt::Display for PlaceProfilesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profiles [")?;
        for (i, p) in self.requested.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "] do not fit on one GPU under MIG placement rules")
    }
}

impl std::error::Error for PlaceProfilesError {}

/// A concrete placement of MIG instances on one physical GPU.
///
/// # Examples
///
/// ```
/// use mig_gpu::{GpuLayout, ProfileSize};
///
/// // Figure 2's heterogeneous example: 3 GPCs + 2 GPCs + 1 GPC + 1 GPC.
/// let layout = GpuLayout::place(&[
///     ProfileSize::G3,
///     ProfileSize::G2,
///     ProfileSize::G1,
///     ProfileSize::G1,
/// ])?;
/// assert_eq!(layout.used_gpcs(), 7);
/// # Ok::<(), mig_gpu::PlaceProfilesError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuLayout {
    /// `(profile, start slice)` pairs, sorted by start slice.
    placements: Vec<(ProfileSize, usize)>,
}

impl GpuLayout {
    /// An empty GPU with no instances configured.
    #[must_use]
    pub fn empty() -> Self {
        GpuLayout {
            placements: Vec::new(),
        }
    }

    /// Attempts to place the given multiset of profiles on one GPU.
    ///
    /// Placement is searched by backtracking over the A100's allowed start
    /// positions, trying large profiles first (their placements are the most
    /// constrained).
    ///
    /// # Errors
    ///
    /// Returns [`PlaceProfilesError`] if no assignment of start slices
    /// satisfies the placement rules.
    pub fn place(profiles: &[ProfileSize]) -> Result<Self, PlaceProfilesError> {
        let mut sorted: Vec<ProfileSize> = profiles.to_vec();
        sorted.sort_by(|a, b| b.cmp(a)); // biggest first
        let mut occupied = [false; MEM_SLICES];
        let mut placements = Vec::with_capacity(sorted.len());
        if Self::backtrack(&sorted, 0, &mut occupied, &mut placements) {
            placements.sort_by_key(|&(_, start)| start);
            Ok(GpuLayout { placements })
        } else {
            Err(PlaceProfilesError {
                requested: profiles.to_vec(),
            })
        }
    }

    fn backtrack(
        profiles: &[ProfileSize],
        idx: usize,
        occupied: &mut [bool; MEM_SLICES],
        placements: &mut Vec<(ProfileSize, usize)>,
    ) -> bool {
        let Some(&profile) = profiles.get(idx) else {
            return true;
        };
        let span = profile.mem_slices();
        for &start in profile.allowed_starts() {
            // A profile's compute must come from real GPCs: the run of
            // slices must contain at least `gpcs` compute slices, i.e. it
            // may touch memory slice 7 only if it has spare memory span
            // (3g/7g do; 1g/2g at the top would be compute-less).
            let compute_in_span = (start..start + span)
                .filter(|&s| s < COMPUTE_SLICES)
                .count();
            if compute_in_span < profile.gpcs() {
                continue;
            }
            if occupied[start..start + span].iter().any(|&o| o) {
                continue;
            }
            occupied[start..start + span]
                .iter_mut()
                .for_each(|o| *o = true);
            placements.push((profile, start));
            if Self::backtrack(profiles, idx + 1, occupied, placements) {
                return true;
            }
            placements.pop();
            occupied[start..start + span]
                .iter_mut()
                .for_each(|o| *o = false);
        }
        false
    }

    /// Whether the multiset of profiles fits on one GPU.
    ///
    /// Feasibility depends only on the per-size counts, and once the GPC
    /// budget prunes impossible vectors the count space is tiny (≤ 384
    /// entries), so the backtracking search runs once per process to fill a
    /// table and every query after that is a lookup. Packing heuristics
    /// probe `fits` per (instance, GPU) pair on every re-plan, which makes
    /// this the hot path of [`PartitionPlan`]-style planners.
    ///
    /// [`PartitionPlan`]: https://docs.rs/paris-core
    #[must_use]
    pub fn fits(profiles: &[ProfileSize]) -> bool {
        let mut counts = [0usize; 5];
        let mut gpcs = 0usize;
        for &p in profiles {
            counts[match p {
                ProfileSize::G1 => 0,
                ProfileSize::G2 => 1,
                ProfileSize::G3 => 2,
                ProfileSize::G4 => 3,
                ProfileSize::G7 => 4,
            }] += 1;
            gpcs += p.gpcs();
        }
        // Every instance needs `gpcs` real compute slices from a disjoint
        // span, so any multiset over 7 GPCs is infeasible outright. That
        // bound also caps the per-size counts (7×G1, 3×G2, 2×G3, 1×G4,
        // 1×G7), keeping the index below inside the table.
        if gpcs > COMPUTE_SLICES {
            return false;
        }
        let [c1, c2, c3, c4, c7] = counts;
        Self::fits_table()[c1 + 8 * (c2 + 4 * (c3 + 3 * (c4 + 2 * c7)))]
    }

    /// Lazily built table of [`Self::fits`] answers for every count vector
    /// reachable under the 7-GPC bound, indexed as
    /// `c1 + 8·(c2 + 4·(c3 + 3·(c4 + 2·c7)))`.
    fn fits_table() -> &'static [bool; 384] {
        static TABLE: std::sync::OnceLock<[bool; 384]> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            let mut table = [false; 384];
            let mut profiles = Vec::with_capacity(COMPUTE_SLICES);
            for c7 in 0..2 {
                for c4 in 0..2 {
                    for c3 in 0..3 {
                        for c2 in 0..4 {
                            for c1 in 0..8 {
                                profiles.clear();
                                profiles.extend(std::iter::repeat_n(ProfileSize::G7, c7));
                                profiles.extend(std::iter::repeat_n(ProfileSize::G4, c4));
                                profiles.extend(std::iter::repeat_n(ProfileSize::G3, c3));
                                profiles.extend(std::iter::repeat_n(ProfileSize::G2, c2));
                                profiles.extend(std::iter::repeat_n(ProfileSize::G1, c1));
                                table[c1 + 8 * (c2 + 4 * (c3 + 3 * (c4 + 2 * c7)))] =
                                    Self::place(&profiles).is_ok();
                            }
                        }
                    }
                }
            }
            table
        })
    }

    /// The placed instances as `(profile, start slice)` pairs, ordered by
    /// start slice.
    #[must_use]
    pub fn placements(&self) -> &[(ProfileSize, usize)] {
        &self.placements
    }

    /// The instance profiles on this GPU, ordered by start slice.
    #[must_use]
    pub fn profiles(&self) -> Vec<ProfileSize> {
        self.placements.iter().map(|&(p, _)| p).collect()
    }

    /// Number of instances configured.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.placements.len()
    }

    /// GPCs consumed by the configured instances.
    #[must_use]
    pub fn used_gpcs(&self) -> usize {
        self.placements.iter().map(|&(p, _)| p.gpcs()).sum()
    }

    /// GPCs left unused (stranded) on this GPU.
    #[must_use]
    pub fn idle_gpcs(&self) -> usize {
        COMPUTE_SLICES - self.used_gpcs()
    }

    /// Memory slices consumed.
    #[must_use]
    pub fn used_mem_slices(&self) -> usize {
        self.placements.iter().map(|&(p, _)| p.mem_slices()).sum()
    }
}

impl Default for GpuLayout {
    fn default() -> Self {
        Self::empty()
    }
}

impl fmt::Display for GpuLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (p, _)) in self.placements.iter().enumerate() {
            if i > 0 {
                write!(f, "|")?;
            }
            write!(f, "{}g", p.gpcs())?;
        }
        if self.idle_gpcs() > 0 {
            write!(f, "|{} idle", self.idle_gpcs())?;
        }
        write!(f, "]")
    }
}

/// Enumerates every distinct multiset of profiles that fits on one GPU
/// (including the empty configuration), sorted for reproducibility.
///
/// # Examples
///
/// ```
/// use mig_gpu::valid_gpu_configurations;
///
/// let configs = valid_gpu_configurations();
/// // The classic homogeneous configurations are all present.
/// assert!(configs.iter().any(|c| c.len() == 7)); // 7 × 1g
/// assert!(configs.iter().any(|c| c.len() == 1)); // 7g
/// ```
#[must_use]
pub fn valid_gpu_configurations() -> Vec<Vec<ProfileSize>> {
    let mut results = Vec::new();
    let mut current = Vec::new();
    // Depth-first over non-increasing profile sequences to enumerate
    // multisets once each.
    fn dfs(start_idx: usize, current: &mut Vec<ProfileSize>, results: &mut Vec<Vec<ProfileSize>>) {
        let mut normalized = current.clone();
        normalized.sort();
        results.push(normalized);
        // Profiles in descending size so sequences are non-increasing.
        let descending = [
            ProfileSize::G7,
            ProfileSize::G4,
            ProfileSize::G3,
            ProfileSize::G2,
            ProfileSize::G1,
        ];
        for (i, &p) in descending.iter().enumerate().skip(start_idx) {
            current.push(p);
            if GpuLayout::fits(current) {
                dfs(i, current, results);
            }
            current.pop();
        }
    }
    dfs(0, &mut current, &mut results);
    results.sort();
    results.dedup();
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use ProfileSize::{G1, G2, G3, G4, G7};

    #[test]
    fn homogeneous_configs_from_figure2_fit() {
        assert!(GpuLayout::fits(&[G1; 7]));
        assert!(GpuLayout::fits(&[G2, G2, G2, G1]));
        assert!(GpuLayout::fits(&[G4, G2, G1]));
        assert!(GpuLayout::fits(&[G7]));
    }

    #[test]
    fn heterogeneous_configs_from_figure2_fit() {
        assert!(GpuLayout::fits(&[G3, G2, G1, G1]));
        assert!(GpuLayout::fits(&[G4, G2, G1]));
    }

    #[test]
    fn real_a100_constraints_hold() {
        assert!(GpuLayout::fits(&[G3, G3]));
        assert!(GpuLayout::fits(&[G4, G3]));
        assert!(
            !GpuLayout::fits(&[G4, G4]),
            "two 4g need 8 mem slices each side but only one 4g start"
        );
        assert!(
            !GpuLayout::fits(&[G3, G3, G1]),
            "3g+3g consume all 8 mem slices"
        );
        assert!(!GpuLayout::fits(&[G7, G1]));
        assert!(!GpuLayout::fits(&[G1; 8]), "only 7 compute slices");
        assert!(!GpuLayout::fits(&[G2, G2, G2, G2]), "8 GPCs worth of 2g");
    }

    #[test]
    fn three_2g_plus_1g_uses_all_seven_gpcs() {
        let layout = GpuLayout::place(&[G2, G2, G2, G1]).unwrap();
        assert_eq!(layout.used_gpcs(), 7);
        assert_eq!(layout.idle_gpcs(), 0);
        assert_eq!(layout.instance_count(), 4);
    }

    #[test]
    fn two_3g_strand_one_gpc() {
        let layout = GpuLayout::place(&[G3, G3]).unwrap();
        assert_eq!(layout.used_gpcs(), 6);
        assert_eq!(layout.idle_gpcs(), 1);
        assert_eq!(layout.used_mem_slices(), 8);
    }

    #[test]
    fn one_4g_strands_three_gpcs() {
        // The methodology section's example: a homogeneous GPU(4) server
        // can host only one instance per GPU, idling 3 GPCs.
        let layout = GpuLayout::place(&[G4]).unwrap();
        assert_eq!(layout.idle_gpcs(), 3);
        assert!(!GpuLayout::fits(&[G4, G3, G1]));
    }

    #[test]
    fn placements_do_not_overlap() {
        let layout = GpuLayout::place(&[G3, G2, G1, G1]).unwrap();
        let mut occupied = [false; MEM_SLICES];
        for &(p, start) in layout.placements() {
            #[allow(clippy::needless_range_loop)] // `s` names the slice
            for s in start..start + p.mem_slices() {
                assert!(!occupied[s], "slice {s} double-booked");
                occupied[s] = true;
            }
        }
    }

    #[test]
    fn enumeration_contains_known_configs_and_no_invalid_ones() {
        let configs = valid_gpu_configurations();
        let contains = |c: &[ProfileSize]| {
            let mut v = c.to_vec();
            v.sort();
            configs.iter().any(|cfg| cfg == &v)
        };
        assert!(contains(&[G1; 7]));
        assert!(contains(&[G4, G3]));
        assert!(contains(&[G3, G2, G1, G1]));
        assert!(!contains(&[G4, G4]));
        assert!(!contains(&[G3, G3, G1]));
        // Every enumerated config re-validates.
        for cfg in &configs {
            assert!(GpuLayout::fits(cfg), "enumerated config {cfg:?} must fit");
        }
    }

    #[test]
    fn empty_layout_is_valid_and_idle() {
        let layout = GpuLayout::empty();
        assert_eq!(layout.instance_count(), 0);
        assert_eq!(layout.idle_gpcs(), COMPUTE_SLICES);
        assert!(GpuLayout::fits(&[]));
    }

    #[test]
    fn error_lists_requested_profiles() {
        let err = GpuLayout::place(&[G7, G7]).unwrap_err();
        assert_eq!(err.requested(), &[G7, G7]);
        assert!(err.to_string().contains("GPU(7)"));
    }

    #[test]
    fn display_renders_layout() {
        let layout = GpuLayout::place(&[G4, G2, G1]).unwrap();
        let s = layout.to_string();
        assert!(s.contains("4g") && s.contains("2g") && s.contains("1g"));
    }
}
