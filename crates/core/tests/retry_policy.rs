//! Property tests for the shared retry/backoff policy
//! (`plp_core::retry`, implemented in `plp_events::retry`).
//!
//! The two properties the harness supervisor leans on: schedules are a
//! pure function of `(policy, run key, seed)` — no entropy anywhere —
//! and every delay is bounded by the policy's cap (jitter included),
//! so a retry budget translates into a hard worst-case wait.

use plp_core::retry::{RetryPolicy, RetryToken};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = RetryPolicy> {
    (0u32..10, 1u64..100_000, 1u64..8, 0u64..100).prop_map(
        |(max_retries, base, mult, jitter_pct)| {
            let base_delay_ns = base as f64;
            RetryPolicy {
                max_retries,
                base_delay_ns,
                multiplier: mult as f64,
                max_delay_ns: base_delay_ns * 16.0,
                jitter: jitter_pct as f64 / 100.0,
            }
        },
    )
}

proptest! {
    /// The schedule for a (run key, seed) pair is deterministic: two
    /// independent computations agree delay-for-delay.
    #[test]
    fn schedules_are_deterministic_per_key_and_seed(
        policy in arb_policy(),
        seed in any::<u64>(),
        key_a in 0u64..1_000,
        key_b in 0u64..1_000,
    ) {
        let key = format!("bench=gcc|instr={key_a}|seed={key_b}");
        let token = RetryToken::new(seed).mix_str(&key);
        let again = RetryToken::new(seed).mix_str(&key);
        prop_assert_eq!(token, again);
        prop_assert_eq!(policy.schedule(token), policy.schedule(again));
    }

    /// Every delay is non-negative and bounded by the jittered cap,
    /// and the schedule length equals the retry budget.
    #[test]
    fn schedules_are_bounded(policy in arb_policy(), seed in any::<u64>()) {
        let token = RetryToken::new(seed).mix_str("bounded");
        let schedule = policy.schedule(token);
        prop_assert_eq!(schedule.len(), policy.max_retries as usize);
        let cap = policy.max_delay_ns * (1.0 + policy.jitter);
        let mut total = 0.0;
        for (i, d) in schedule.iter().enumerate() {
            prop_assert!(*d >= 0.0, "retry {i} waits a negative {d}");
            prop_assert!(*d <= cap, "retry {i} waits {d} past the cap {cap}");
            total += *d;
        }
        prop_assert!(total <= policy.worst_case_total_ns() + 1e-9);
    }

    /// Jitter never changes the order of magnitude the caller asked
    /// for: the jittered delay stays within `[1-j, 1+j]` of the
    /// un-jittered schedule point.
    #[test]
    fn jitter_stays_proportional(
        policy in arb_policy(),
        seed in any::<u64>(),
        attempt in 1u32..10,
    ) {
        prop_assume!(attempt <= policy.max_retries);
        let token = RetryToken::new(seed);
        let flat = RetryPolicy { jitter: 0.0, ..policy };
        let bare = flat.delay_ns(token, attempt);
        let jittered = policy.delay_ns(token, attempt);
        prop_assert!(jittered >= bare * (1.0 - policy.jitter) - 1e-9);
        prop_assert!(jittered <= bare * (1.0 + policy.jitter) + 1e-9);
    }
}
