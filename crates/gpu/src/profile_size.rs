//! MIG instance profiles: the five partition granularities of an A100.

use std::fmt;
use std::str::FromStr;

/// A MIG instance profile, named by its GPC count — the paper's
/// GPU(1)/GPU(2)/GPU(3)/GPU(4)/GPU(7).
///
/// Each profile owns a number of compute GPCs and a number of the GPU's 8
/// memory slices (which set its DRAM bandwidth share), following the real
/// A100 profile table: `1g` takes 1 slice, `2g` 2, `3g` **4**, `4g` 4 and
/// `7g` all 8.
///
/// # Examples
///
/// ```
/// use mig_gpu::ProfileSize;
///
/// assert_eq!(ProfileSize::G3.gpcs(), 3);
/// assert_eq!(ProfileSize::G3.mem_slices(), 4); // 3g owns half the memory
/// assert_eq!(ProfileSize::G7.to_string(), "GPU(7)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProfileSize {
    /// 1 GPC, 1 memory slice (`1g.5gb`).
    G1,
    /// 2 GPCs, 2 memory slices (`2g.10gb`).
    G2,
    /// 3 GPCs, 4 memory slices (`3g.20gb`).
    G3,
    /// 4 GPCs, 4 memory slices (`4g.20gb`).
    G4,
    /// 7 GPCs, all 8 memory slices (`7g.40gb`).
    G7,
}

impl ProfileSize {
    /// All profiles, smallest first — the iteration order ELSA uses.
    pub const ALL: [ProfileSize; 5] = [
        ProfileSize::G1,
        ProfileSize::G2,
        ProfileSize::G3,
        ProfileSize::G4,
        ProfileSize::G7,
    ];

    /// Number of GPCs (the paper's partition-size parameter).
    #[must_use]
    pub const fn gpcs(self) -> usize {
        match self {
            ProfileSize::G1 => 1,
            ProfileSize::G2 => 2,
            ProfileSize::G3 => 3,
            ProfileSize::G4 => 4,
            ProfileSize::G7 => 7,
        }
    }

    /// Number of the GPU's 8 memory slices this profile owns.
    #[must_use]
    pub const fn mem_slices(self) -> usize {
        match self {
            ProfileSize::G1 => 1,
            ProfileSize::G2 => 2,
            ProfileSize::G3 => 4,
            ProfileSize::G4 => 4,
            ProfileSize::G7 => 8,
        }
    }

    /// Memory-slice start positions where the A100 allows this profile to
    /// be placed.
    #[must_use]
    pub const fn allowed_starts(self) -> &'static [usize] {
        match self {
            ProfileSize::G1 => &[0, 1, 2, 3, 4, 5, 6],
            ProfileSize::G2 => &[0, 2, 4],
            ProfileSize::G3 => &[0, 4],
            ProfileSize::G4 => &[0],
            ProfileSize::G7 => &[0],
        }
    }

    /// The profile with exactly `gpcs` GPCs, if one exists.
    #[must_use]
    pub fn from_gpcs(gpcs: usize) -> Option<Self> {
        match gpcs {
            1 => Some(ProfileSize::G1),
            2 => Some(ProfileSize::G2),
            3 => Some(ProfileSize::G3),
            4 => Some(ProfileSize::G4),
            7 => Some(ProfileSize::G7),
            _ => None,
        }
    }
}

impl fmt::Display for ProfileSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GPU({})", self.gpcs())
    }
}

/// Error returned when parsing a [`ProfileSize`] from an unknown string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProfileSizeError {
    input: String,
}

impl fmt::Display for ParseProfileSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown MIG profile `{}` (expected 1g, 2g, 3g, 4g, 7g or GPU(n))",
            self.input
        )
    }
}

impl std::error::Error for ParseProfileSizeError {}

impl FromStr for ProfileSize {
    type Err = ParseProfileSizeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lowered = s.to_ascii_lowercase();
        let digits: String = lowered.chars().filter(char::is_ascii_digit).collect();
        digits
            .parse::<usize>()
            .ok()
            .and_then(ProfileSize::from_gpcs)
            .ok_or_else(|| ParseProfileSizeError {
                input: s.to_owned(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpcs_and_slices_follow_a100_table() {
        let gpcs: Vec<usize> = ProfileSize::ALL.iter().map(|p| p.gpcs()).collect();
        assert_eq!(gpcs, vec![1, 2, 3, 4, 7]);
        let slices: Vec<usize> = ProfileSize::ALL.iter().map(|p| p.mem_slices()).collect();
        assert_eq!(slices, vec![1, 2, 4, 4, 8]);
    }

    #[test]
    fn ordering_is_by_size() {
        assert!(ProfileSize::G1 < ProfileSize::G2);
        assert!(ProfileSize::G4 < ProfileSize::G7);
        let mut v = vec![ProfileSize::G7, ProfileSize::G1, ProfileSize::G3];
        v.sort();
        assert_eq!(v, vec![ProfileSize::G1, ProfileSize::G3, ProfileSize::G7]);
    }

    #[test]
    fn from_gpcs_round_trips() {
        for p in ProfileSize::ALL {
            assert_eq!(ProfileSize::from_gpcs(p.gpcs()), Some(p));
        }
        assert_eq!(ProfileSize::from_gpcs(5), None);
        assert_eq!(ProfileSize::from_gpcs(0), None);
    }

    #[test]
    fn parse_accepts_common_spellings() {
        assert_eq!("3g".parse::<ProfileSize>().unwrap(), ProfileSize::G3);
        assert_eq!("GPU(7)".parse::<ProfileSize>().unwrap(), ProfileSize::G7);
        assert!("1g.5gb".parse::<ProfileSize>().is_err()); // digits "15" → no profile
        assert!("xl".parse::<ProfileSize>().is_err());
    }

    #[test]
    fn allowed_starts_fit_in_eight_slices() {
        for p in ProfileSize::ALL {
            for &s in p.allowed_starts() {
                assert!(s + p.mem_slices() <= 8, "{p} at slice {s} overflows");
            }
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(ProfileSize::G1.to_string(), "GPU(1)");
        assert_eq!(ProfileSize::G4.to_string(), "GPU(4)");
    }
}
