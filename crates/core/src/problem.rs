//! Cardinality goals and problem classification (§3.1.3).
//!
//! A user declares what result size would be *expected*; comparing the
//! actual cardinality against the goal classifies the situation into one of
//! the cardinality-based why-problems. During rewriting the result size can
//! oscillate around the threshold (Fig. 3.1) — the engine re-classifies
//! after every executed candidate and adapts the search direction.

/// The user's expectation about the result size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CardinalityGoal {
    /// At least one answer (the why-empty setting; no threshold given).
    NonEmpty,
    /// At least `C_thr` answers.
    AtLeast(u64),
    /// At most `C_thr` answers (and at least one).
    AtMost(u64),
    /// Between `lo` and `hi` answers inclusive.
    Between(u64, u64),
}

impl CardinalityGoal {
    /// Does a result size satisfy the goal?
    pub fn satisfied(&self, c: u64) -> bool {
        match *self {
            CardinalityGoal::NonEmpty => c > 0,
            CardinalityGoal::AtLeast(t) => c >= t,
            CardinalityGoal::AtMost(t) => c > 0 && c <= t,
            CardinalityGoal::Between(lo, hi) => c >= lo && c <= hi,
        }
    }

    /// Classify the why-problem for a result size (Fig. 3.1).
    pub fn classify(&self, c: u64) -> WhyProblem {
        if c == 0 {
            return if self.satisfied(0) {
                WhyProblem::Satisfied
            } else {
                WhyProblem::WhyEmpty
            };
        }
        match *self {
            CardinalityGoal::NonEmpty => WhyProblem::Satisfied,
            CardinalityGoal::AtLeast(t) => {
                if c >= t {
                    WhyProblem::Satisfied
                } else {
                    WhyProblem::WhySoFew
                }
            }
            CardinalityGoal::AtMost(t) => {
                if c <= t {
                    WhyProblem::Satisfied
                } else {
                    WhyProblem::WhySoMany
                }
            }
            CardinalityGoal::Between(lo, hi) => {
                if c < lo {
                    WhyProblem::WhySoFew
                } else if c > hi {
                    WhyProblem::WhySoMany
                } else {
                    WhyProblem::Satisfied
                }
            }
        }
    }

    /// The deviation `|C_thr − C|` minimized by cardinality-driven search;
    /// zero when the goal is met. For intervals the nearest bound counts.
    pub fn deviation(&self, c: u64) -> u64 {
        match *self {
            CardinalityGoal::NonEmpty => u64::from(c == 0),
            CardinalityGoal::AtLeast(t) => t.saturating_sub(c),
            CardinalityGoal::AtMost(t) => {
                if c == 0 {
                    // empty is unexpected for "at most" too — maximally off
                    t.max(1)
                } else {
                    c.saturating_sub(t)
                }
            }
            CardinalityGoal::Between(lo, hi) => {
                if c < lo {
                    lo - c
                } else {
                    c.saturating_sub(hi)
                }
            }
        }
    }

    /// The smallest count cap that decides the goal exactly: 1, `t + 1` or
    /// `hi + 1`, so `satisfied(min(c, cap)) == satisfied(c)` and
    /// `classify(min(c, cap)) == classify(c)` for every `c`. A count
    /// capped below it can misjudge the goal.
    pub(crate) fn decisive_cap(&self) -> u64 {
        match *self {
            CardinalityGoal::NonEmpty => 1,
            CardinalityGoal::AtLeast(t) | CardinalityGoal::AtMost(t) => t.saturating_add(1),
            CardinalityGoal::Between(_, hi) => hi.saturating_add(1),
        }
    }

    /// A representative threshold for reports: 1, `t`, or the midpoint of
    /// `lo` and `hi` (rounded down). BOUNDEDMCS decides its goal with the
    /// goal's decisive count cap, not with this.
    pub fn threshold(&self) -> u64 {
        match *self {
            CardinalityGoal::NonEmpty => 1,
            CardinalityGoal::AtLeast(t) | CardinalityGoal::AtMost(t) => t,
            CardinalityGoal::Between(lo, hi) => lo.midpoint(hi),
        }
    }
}

/// The cardinality-based why-problems of the thesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhyProblem {
    /// Result size meets the expectation — nothing to explain.
    Satisfied,
    /// Empty result (why-empty query, Ch. 4/5).
    WhyEmpty,
    /// Fewer answers than expected (why-so-few, Ch. 4/6).
    WhySoFew,
    /// More answers than expected (why-so-many, Ch. 4/6).
    WhySoMany,
}

impl std::fmt::Display for WhyProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WhyProblem::Satisfied => "satisfied",
            WhyProblem::WhyEmpty => "why-empty",
            WhyProblem::WhySoFew => "why-so-few",
            WhyProblem::WhySoMany => "why-so-many",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_of_an_unbounded_interval_does_not_overflow() {
        assert_eq!(CardinalityGoal::Between(4, 9).threshold(), 6);
        assert_eq!(
            CardinalityGoal::Between(u64::MAX - 2, u64::MAX).threshold(),
            u64::MAX - 1
        );
        assert_eq!(
            CardinalityGoal::Between(0, u64::MAX).threshold(),
            u64::MAX / 2
        );
    }

    #[test]
    fn classification() {
        assert_eq!(CardinalityGoal::NonEmpty.classify(0), WhyProblem::WhyEmpty);
        assert_eq!(CardinalityGoal::NonEmpty.classify(3), WhyProblem::Satisfied);
        assert_eq!(
            CardinalityGoal::AtLeast(10).classify(3),
            WhyProblem::WhySoFew
        );
        assert_eq!(
            CardinalityGoal::AtMost(10).classify(30),
            WhyProblem::WhySoMany
        );
        assert_eq!(
            CardinalityGoal::AtMost(10).classify(0),
            WhyProblem::WhyEmpty
        );
        assert_eq!(
            CardinalityGoal::Between(5, 10).classify(7),
            WhyProblem::Satisfied
        );
        assert_eq!(
            CardinalityGoal::Between(5, 10).classify(2),
            WhyProblem::WhySoFew
        );
        assert_eq!(
            CardinalityGoal::Between(5, 10).classify(20),
            WhyProblem::WhySoMany
        );
    }

    #[test]
    fn satisfaction() {
        assert!(CardinalityGoal::NonEmpty.satisfied(1));
        assert!(!CardinalityGoal::NonEmpty.satisfied(0));
        assert!(CardinalityGoal::AtMost(5).satisfied(5));
        assert!(!CardinalityGoal::AtMost(5).satisfied(0));
        assert!(CardinalityGoal::Between(2, 4).satisfied(3));
    }

    #[test]
    fn deviations() {
        assert_eq!(CardinalityGoal::AtLeast(10).deviation(4), 6);
        assert_eq!(CardinalityGoal::AtLeast(10).deviation(15), 0);
        assert_eq!(CardinalityGoal::AtMost(10).deviation(25), 15);
        assert_eq!(CardinalityGoal::Between(5, 10).deviation(2), 3);
        assert_eq!(CardinalityGoal::Between(5, 10).deviation(13), 3);
        assert_eq!(CardinalityGoal::Between(5, 10).deviation(7), 0);
        assert_eq!(CardinalityGoal::NonEmpty.deviation(0), 1);
        assert_eq!(CardinalityGoal::NonEmpty.deviation(9), 0);
    }
}
