//! Failpoint catalog determinism: the same `(scheme, trace seed,
//! failpoint, hit)` must fire at the same persist index on every run
//! and on every thread — a crash-harness verdict observed once has to
//! stay reproducible forever.

use plp_core::{
    Failpoint, FailpointPlan, FailpointRegistry, FiredFailpoint, SimSetup, SystemConfig,
    UpdateScheme,
};
use plp_trace::spec;

const INSTRUCTIONS: u64 = 6_000;
const SEED: u64 = 7;

fn observe_run(scheme: UpdateScheme, plan: FailpointPlan) -> Option<FiredFailpoint> {
    let profile = spec::benchmark("gcc").unwrap();
    let setup = SimSetup::for_profile(SystemConfig::for_scheme(scheme), &profile, SEED).unwrap();
    let trace = setup.generate_trace(INSTRUCTIONS);
    let mut sim = setup.simulation();
    sim.arm_failpoints(FailpointRegistry::observe(plan));
    let (_, finished) = sim.run_with_state(&trace);
    finished.fired_failpoint()
}

fn grid(scheme: UpdateScheme) -> Vec<FailpointPlan> {
    let mut plans = vec![
        FailpointPlan {
            point: Failpoint::MidTuple,
            hit: 40,
        },
        FailpointPlan {
            point: Failpoint::BetweenLevels,
            hit: 200,
        },
        FailpointPlan {
            point: Failpoint::PreRootSeal,
            hit: 25,
        },
        FailpointPlan {
            point: Failpoint::PostRootSeal,
            hit: 25,
        },
    ];
    if scheme.is_epoch_based() {
        plans.push(FailpointPlan {
            point: Failpoint::MidEpochFlush,
            hit: 10,
        });
        plans.push(FailpointPlan {
            point: Failpoint::PostEpochSeal,
            hit: 1,
        });
    }
    plans
}

/// Same plan, repeated serial runs: identical firing site.
#[test]
fn firing_site_is_stable_across_runs() {
    for scheme in [UpdateScheme::Sp, UpdateScheme::Unordered, UpdateScheme::O3] {
        for plan in grid(scheme) {
            let first = observe_run(scheme, plan);
            let second = observe_run(scheme, plan);
            assert_eq!(
                first,
                second,
                "{} at {:?} fired at different sites across runs",
                scheme.name(),
                plan
            );
            let fired =
                first.unwrap_or_else(|| panic!("{} never reached {:?}", scheme.name(), plan));
            assert_eq!(fired.point, plan.point);
            assert_eq!(fired.hit, plan.hit);
            assert!(fired.persist > 0, "firing must be inside a persist");
        }
    }
}

/// Same plan on many concurrent threads: every thread reports the
/// same firing site as the serial run.
#[test]
fn firing_site_is_stable_across_threads() {
    for scheme in [UpdateScheme::Sp, UpdateScheme::Coalescing] {
        let plan = FailpointPlan {
            point: Failpoint::PostRootSeal,
            hit: 33,
        };
        let serial = observe_run(scheme, plan);
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(move || observe_run(scheme, plan)))
            .collect();
        for h in handles {
            let threaded = h.join().expect("observer thread panicked");
            assert_eq!(
                serial,
                threaded,
                "{} fired at a different site on a worker thread",
                scheme.name()
            );
        }
    }
}

/// Hit counting does not depend on whether a durable sink is
/// attached: the firing site with a sink equals the one without.
#[test]
fn sink_attachment_does_not_move_firing_sites() {
    let scheme = UpdateScheme::Sp;
    let plan = FailpointPlan {
        point: Failpoint::MidTuple,
        hit: 60,
    };
    let bare = observe_run(scheme, plan);

    let profile = spec::benchmark("gcc").unwrap();
    let setup = SimSetup::for_profile(SystemConfig::for_scheme(scheme), &profile, SEED).unwrap();
    let trace = setup.generate_trace(INSTRUCTIONS);
    let path = std::env::temp_dir().join(format!("plp-fp-determinism-{}.img", std::process::id()));
    let mut sim = setup.simulation();
    sim.attach_durable_sink(plp_core::DurableSink::create(&path, setup.config(), SEED).unwrap());
    sim.arm_failpoints(FailpointRegistry::observe(plan));
    let (_, finished) = sim.run_with_state(&trace);
    assert_eq!(bare, finished.fired_failpoint());
    std::fs::remove_file(&path).unwrap();
}
