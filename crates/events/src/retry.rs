//! The workspace's one retry/backoff policy.
//!
//! Every component that retries a failed operation — the NVM device's
//! transient-read-fault controller, the experiment harness's run
//! supervisor — shares this implementation, canonically re-exported as
//! `plp_core::retry`. A [`RetryPolicy`] describes a bounded, optionally
//! jittered exponential backoff schedule; a [`RetryToken`] seeds the
//! jitter so that the whole schedule is a pure function of
//! `(policy, token)` and nothing else. There is no entropy source
//! anywhere: re-running a retry sequence with the same token replays
//! the same delays, which is what keeps faulted runs replayable and
//! harness chaos tests byte-deterministic.
//!
//! # Example
//!
//! ```
//! use plp_events::retry::{RetryPolicy, RetryToken};
//!
//! let policy = RetryPolicy::exponential(3, 100.0).with_jitter(0.25);
//! let token = RetryToken::new(7).mix_str("gcc|scheme=o3");
//! let schedule = policy.schedule(token);
//! assert_eq!(schedule.len(), 3);
//! // Deterministic: the same token always yields the same delays.
//! assert_eq!(schedule, policy.schedule(token));
//! // Bounded: no delay exceeds the cap even with jitter applied.
//! assert!(schedule.iter().all(|&d| d <= policy.max_delay_ns * 1.25));
//! ```

/// One splitmix64 step: advances `state` and returns the next value of
/// the stream. The workspace's one deterministic randomness source —
/// retry jitter here, the NVM device's read faults and the fault
/// injector's draws — identical on every platform, with no RNG
/// dependency.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of a retry schedule's jitter: a mixed-down identity of the
/// operation being retried (e.g. a run key plus a harness seed).
///
/// Tokens are plain values; mixing is FNV-1a over strings, so a token
/// built from the same parts in the same order is always the same
/// token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryToken(u64);

impl RetryToken {
    /// A token from a bare seed.
    pub fn new(seed: u64) -> Self {
        RetryToken(seed ^ 0x52_45_54_52_59_5F_54_4B) // "RETRY_TK"
    }

    /// Folds a string (e.g. a run key) into the token, FNV-1a style.
    pub fn mix_str(self, s: &str) -> Self {
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        RetryToken(h)
    }

    /// The raw mixed value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A bounded, seeded, optionally jittered exponential backoff policy.
///
/// The schedule for retry `attempt` (1-based) is
/// `min(base_delay_ns * multiplier^(attempt-1), max_delay_ns)`,
/// stretched by a deterministic jitter factor drawn from the token:
/// with jitter `j`, the final delay lies in `[d*(1-j), d*(1+j))`.
/// `max_retries` bounds how many retries a caller may take; delays are
/// in nanoseconds because the NVM timing model works in datasheet
/// nanoseconds (the harness converts to `Duration`s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retry budget after the initial attempt.
    pub max_retries: u32,
    /// Backoff before the first retry, ns.
    pub base_delay_ns: f64,
    /// Growth factor between consecutive retries.
    pub multiplier: f64,
    /// Cap applied before jitter, ns.
    pub max_delay_ns: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// token-seeded factor in `[1-jitter, 1+jitter)`. Zero disables
    /// jitter entirely (the schedule ignores the token).
    pub jitter: f64,
}

impl RetryPolicy {
    /// A constant backoff: `max_retries` retries of `delay_ns` each —
    /// the NVM read-fault controller's shape.
    pub const fn constant(max_retries: u32, delay_ns: f64) -> Self {
        RetryPolicy {
            max_retries,
            base_delay_ns: delay_ns,
            multiplier: 1.0,
            max_delay_ns: delay_ns,
            jitter: 0.0,
        }
    }

    /// A doubling backoff starting at `base_delay_ns`, capped at 32x
    /// the base. Add jitter with [`RetryPolicy::with_jitter`].
    pub const fn exponential(max_retries: u32, base_delay_ns: f64) -> Self {
        RetryPolicy {
            max_retries,
            base_delay_ns,
            multiplier: 2.0,
            max_delay_ns: base_delay_ns * 32.0,
            jitter: 0.0,
        }
    }

    /// Sets the jitter fraction (clamped to `[0, 1]`).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// Sets the pre-jitter delay cap.
    pub const fn with_max_delay_ns(mut self, max_delay_ns: f64) -> Self {
        self.max_delay_ns = max_delay_ns;
        self
    }

    /// Sets the growth factor.
    pub const fn with_multiplier(mut self, multiplier: f64) -> Self {
        self.multiplier = multiplier;
        self
    }

    /// The backoff before retry `attempt` (1-based), in nanoseconds.
    /// Attempt 0 is the initial try and waits nothing; attempts beyond
    /// `max_retries` are out of budget and also return 0 (callers stop
    /// retrying, they don't wait).
    pub fn delay_ns(&self, token: RetryToken, attempt: u32) -> f64 {
        if attempt == 0 || attempt > self.max_retries || self.base_delay_ns <= 0.0 {
            return 0.0;
        }
        let grown = self.base_delay_ns * self.multiplier.powi(attempt.saturating_sub(1) as i32);
        let clamped = grown.min(self.max_delay_ns);
        if self.jitter <= 0.0 {
            return clamped;
        }
        let mut state = token.value() ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        clamped * (1.0 - self.jitter + 2.0 * self.jitter * unit)
    }

    /// The whole schedule: delays before retries `1..=max_retries`.
    pub fn schedule(&self, token: RetryToken) -> Vec<f64> {
        (1..=self.max_retries).map(|a| self.delay_ns(token, a)).collect()
    }

    /// Worst-case total backoff across the whole budget, ns — what a
    /// caller commits to waiting before declaring an operation dead.
    pub fn worst_case_total_ns(&self) -> f64 {
        f64::from(self.max_retries) * self.max_delay_ns * (1.0 + self.jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_policy_is_flat_and_token_blind() {
        let p = RetryPolicy::constant(3, 100.0);
        let a = RetryToken::new(1);
        let b = RetryToken::new(2).mix_str("other");
        for attempt in 1..=3 {
            assert_eq!(p.delay_ns(a, attempt), 100.0);
            assert_eq!(p.delay_ns(b, attempt), 100.0);
        }
        assert_eq!(p.delay_ns(a, 0), 0.0);
        assert_eq!(p.delay_ns(a, 4), 0.0, "out of budget waits nothing");
    }

    #[test]
    fn exponential_growth_respects_cap() {
        let p = RetryPolicy::exponential(8, 10.0).with_max_delay_ns(50.0);
        let t = RetryToken::new(0);
        assert_eq!(p.schedule(t), vec![10.0, 20.0, 40.0, 50.0, 50.0, 50.0, 50.0, 50.0]);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::exponential(5, 100.0).with_jitter(0.5);
        let t = RetryToken::new(42).mix_str("run-key");
        let s1 = p.schedule(t);
        let s2 = p.schedule(t);
        assert_eq!(s1, s2);
        for (i, d) in s1.iter().enumerate() {
            let base = (100.0 * 2f64.powi(i as i32)).min(p.max_delay_ns);
            assert!(*d >= base * 0.5 && *d < base * 1.5, "retry {i}: {d} vs {base}");
        }
        // A different token jitters differently somewhere.
        let other = p.schedule(RetryToken::new(43).mix_str("run-key"));
        assert_ne!(s1, other);
    }

    #[test]
    fn tokens_compose_purely() {
        let a = RetryToken::new(7).mix_str("gcc");
        assert_eq!(a, RetryToken::new(7).mix_str("gcc"));
        assert_ne!(a, RetryToken::new(7).mix_str("mcf"));
        assert_ne!(a, RetryToken::new(8).mix_str("gcc"));
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = 7u64;
        let mut b = 7u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), xs.len(), "stream repeated immediately");
    }
}
