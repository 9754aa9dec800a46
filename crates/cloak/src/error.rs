//! Error types of the cloaking core.

use keystream::Level;
use roadnet::SegmentId;
use std::error::Error;
use std::fmt;

/// Errors from anonymization.
#[derive(Debug, Clone, PartialEq)]
pub enum CloakError {
    /// The privacy profile was empty or internally inconsistent.
    InvalidProfile(String),
    /// The starting segment does not exist in the network.
    UnknownSegment(SegmentId),
    /// The number of keys did not match the number of levels.
    KeyCountMismatch {
        /// Keyed levels required by the profile.
        expected: usize,
        /// Keys supplied.
        got: usize,
    },
    /// Expansion could not meet a level's requirement: the frontier was
    /// exhausted, the spatial tolerance was hit, or the engine could not
    /// find an unambiguous reversible transition.
    CloakingFailed {
        /// The level that could not be satisfied.
        level: Level,
        /// Why expansion stopped.
        reason: StepFailure,
    },
    /// The anonymizer could not durably journal the owner's ratchet
    /// advance, so no receipt was issued for the epoch: a receipt must
    /// never reference an unjournaled epoch.
    Persistence(String),
}

impl fmt::Display for CloakError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloakError::InvalidProfile(msg) => write!(f, "invalid privacy profile: {msg}"),
            CloakError::UnknownSegment(s) => write!(f, "unknown segment {s}"),
            CloakError::KeyCountMismatch { expected, got } => {
                write!(f, "profile needs {expected} keys but {got} were supplied")
            }
            CloakError::CloakingFailed { level, reason } => {
                write!(f, "cloaking failed at level {level}: {reason}")
            }
            CloakError::Persistence(msg) => {
                write!(f, "chain journal write failed (receipt withheld): {msg}")
            }
        }
    }
}

impl Error for CloakError {}

/// Why a single expansion step could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepFailure {
    /// The cloaking region has no candidate segments left.
    NoCandidates,
    /// Every admissible candidate would exceed the spatial tolerance, or
    /// no reversibility-preserving transition was found within the redraw
    /// budget.
    RedrawBudgetExhausted,
    /// The step limit was reached before the privacy requirement was met.
    StepLimit,
    /// The selection would be ambiguous to reverse — the paper's
    /// "collision" issue. The request should be retried under a fresh
    /// nonce.
    Collision,
}

impl fmt::Display for StepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepFailure::NoCandidates => write!(f, "no candidate segments on the frontier"),
            StepFailure::RedrawBudgetExhausted => {
                write!(
                    f,
                    "redraw budget exhausted (tolerance or collision avoidance)"
                )
            }
            StepFailure::StepLimit => write!(f, "step limit reached"),
            StepFailure::Collision => {
                write!(f, "reversal collision detected; retry with a fresh nonce")
            }
        }
    }
}

/// Structured payload-decode failures.
///
/// [`crate::CloakPayload::decode`] parses attacker-supplied bytes, so
/// every variant carries what the parser *saw* (claimed lengths, the
/// offending version byte) rather than a free-form string: fuzzers and
/// callers can assert on the failure class, and no variant is produced
/// by allocating first and validating later — length and count fields
/// are capped against the remaining input before any allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// Fewer bytes remained than a fixed-size field requires.
    Truncated {
        /// The field being parsed when input ran out.
        field: &'static str,
        /// Bytes the field needs.
        needed: usize,
        /// Bytes that were actually available.
        available: usize,
    },
    /// The payload does not open with the `RCLK` magic.
    BadMagic,
    /// The version byte is not the current wire version. Versions 1
    /// (epoch-less) and 2 (per-step draw lanes, no whole-receipt tag)
    /// are retired and must be re-anonymized.
    UnsupportedVersion(u8),
    /// An embedded length/count field claims more elements than the
    /// remaining input could possibly hold — hostile or corrupt, and
    /// rejected *before* any allocation is sized from it.
    HostileLength {
        /// The count field in question.
        field: &'static str,
        /// Elements the field claimed.
        claimed: u64,
        /// Bytes actually remaining in the input.
        available: usize,
    },
    /// Segment ids were not strictly ascending.
    UnsortedSegments,
    /// The tolerance kind byte was not a known encoding.
    UnknownToleranceKind(u8),
    /// A tolerance value was NaN, infinite, or negative.
    NonFiniteTolerance,
    /// A level declared more quotient hints than forward steps.
    HintOverflow {
        /// Hints declared.
        hints: u64,
        /// Steps the level has.
        steps: u64,
    },
    /// Bytes remained after a structurally complete payload.
    TrailingBytes(usize),
    /// The per-level counts do not add up to the region size.
    InconsistentCounts {
        /// Sum of level counts plus the seed segment.
        declared: u64,
        /// Segments actually present in the region.
        region: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated {
                field,
                needed,
                available,
            } => write!(
                f,
                "truncated {field}: need {needed} bytes, {available} available"
            ),
            DecodeError::BadMagic => write!(f, "bad magic (not an RCLK payload)"),
            DecodeError::UnsupportedVersion(v) => write!(
                f,
                "unsupported version {v} (expected 3; v1 and v2 payloads \
                 are retired and must be re-anonymized)"
            ),
            DecodeError::HostileLength {
                field,
                claimed,
                available,
            } => write!(
                f,
                "hostile {field} count: claims {claimed} entries but only \
                 {available} bytes remain"
            ),
            DecodeError::UnsortedSegments => {
                write!(f, "segment ids must be strictly ascending")
            }
            DecodeError::UnknownToleranceKind(k) => write!(f, "unknown tolerance kind {k}"),
            DecodeError::NonFiniteTolerance => write!(f, "non-finite tolerance"),
            DecodeError::HintOverflow { hints, steps } => {
                write!(f, "{hints} hints declared for {steps} steps")
            }
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            DecodeError::InconsistentCounts { declared, region } => write!(
                f,
                "level counts declare {declared} segments but region holds {region}"
            ),
        }
    }
}

impl Error for DecodeError {}

impl From<DecodeError> for DeanonError {
    fn from(e: DecodeError) -> Self {
        DeanonError::MalformedPayload(e.to_string())
    }
}

/// Errors from de-anonymization.
#[derive(Debug, Clone, PartialEq)]
pub enum DeanonError {
    /// The payload could not be decoded (see [`DecodeError`] for the
    /// structured classification; this carries its rendered message).
    MalformedPayload(String),
    /// Keys must be supplied contiguously from the payload's top level
    /// downward.
    NonContiguousKeys {
        /// The level whose key was expected next.
        expected: Level,
        /// The level actually supplied.
        got: Level,
    },
    /// The level's tag does not match: the key is wrong, or (at the top
    /// level, whose tag authenticates the whole receipt) the payload was
    /// forged or tampered with.
    WrongKey(Level),
    /// The backward walk failed to identify a predecessor — wrong key or
    /// corrupted payload.
    ReversalFailed {
        /// The level being peeled when the walk failed.
        level: Level,
        /// The backward step index (counting down) that failed.
        step: usize,
    },
}

impl fmt::Display for DeanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeanonError::MalformedPayload(msg) => write!(f, "malformed payload: {msg}"),
            DeanonError::NonContiguousKeys { expected, got } => write!(
                f,
                "keys must peel levels contiguously from the top: expected {expected}, got {got}"
            ),
            DeanonError::WrongKey(level) => {
                write!(f, "key for level {level} does not match the payload")
            }
            DeanonError::ReversalFailed { level, step } => {
                write!(f, "reversal failed at level {level}, backward step {step}")
            }
        }
    }
}

impl Error for DeanonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CloakError::CloakingFailed {
            level: Level(2),
            reason: StepFailure::NoCandidates,
        };
        assert!(e.to_string().contains("L2"));
        assert!(e.to_string().contains("no candidate"));

        let e = CloakError::KeyCountMismatch {
            expected: 3,
            got: 1,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('1'));

        let e = DeanonError::NonContiguousKeys {
            expected: Level(3),
            got: Level(1),
        };
        assert!(e.to_string().contains("L3") && e.to_string().contains("L1"));

        assert!(DeanonError::WrongKey(Level(2)).to_string().contains("L2"));
        assert!(DeanonError::ReversalFailed {
            level: Level(1),
            step: 4
        }
        .to_string()
        .contains("step 4"));
        assert!(StepFailure::StepLimit.to_string().contains("limit"));
        assert!(StepFailure::RedrawBudgetExhausted
            .to_string()
            .contains("redraw"));
    }
}
