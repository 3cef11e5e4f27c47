//! Pins the bytes on disk: for every scheme that can attach the
//! durable sink, the device image a gcc run writes and the image
//! `recover_image` writes for a cut at half its frames hash to fixed
//! FNV-1a values. A change to the writer, the frame codec, the replay
//! or the recovered-image writeback that moves a single byte of either
//! fails here. The constants were computed before the image reader was
//! rewritten to decode frames in place, and have not moved since.

use std::path::PathBuf;

use plp_core::{
    recover_image, replay_image, DurableSink, ObserverExpectation, RecoveryManager, SimSetup,
    SystemConfig, UpdateScheme,
};
use plp_events::frame::{decode_frame, fnv1a};
use plp_nvm::image::IMAGE_HEADER_BYTES;
use plp_trace::spec;

const INSTRUCTIONS: u64 = 4_000;
const SEED: u64 = 7;

/// `(scheme, FNV-1a of the sink's image, FNV-1a of the image recovered
/// from its first half of frames)`.
const PINS: [(UpdateScheme, u64, u64); 7] = [
    (
        UpdateScheme::Unordered,
        0x6eb6_2466_5f41_b76a,
        0xc3bb_cbf9_a5ec_b92b,
    ),
    (
        UpdateScheme::Sp,
        0xa89d_2f27_41b2_b02b,
        0x3e46_469e_c302_376d,
    ),
    (
        UpdateScheme::Pipeline,
        0x0f35_414a_9e8c_ae8b,
        0x7a69_9e45_8f3b_60cd,
    ),
    (
        UpdateScheme::O3,
        0xe956_57fc_0f89_7caa,
        0x6ffa_a56b_c7b0_f3bc,
    ),
    (
        UpdateScheme::Coalescing,
        0x8342_f8e3_0e28_602f,
        0xf99f_2a7d_6930_8939,
    ),
    (
        UpdateScheme::TriadNvm,
        0x7c4b_c2e7_2f37_8615,
        0xc51a_1c5a_0500_0cb7,
    ),
    (
        UpdateScheme::Phoenix,
        0xe29f_d1bb_6ee8_7ab7,
        0x55ef_166b_679f_aff9,
    ),
];

fn temp_image(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("plp-image-bytes-{name}-{}.img", std::process::id()))
}

/// The byte length of the header plus the first half of the frames.
fn half_the_frames(bytes: &[u8]) -> usize {
    let mut ends = vec![IMAGE_HEADER_BYTES];
    let mut rest = &bytes[IMAGE_HEADER_BYTES..];
    while let Ok((_, _, used)) = decode_frame(rest) {
        ends.push(ends[ends.len() - 1] + used);
        rest = &rest[used..];
    }
    assert!(rest.is_empty(), "a whole run leaves no torn tail");
    ends[(ends.len() - 1) / 2]
}

/// `(FNV-1a of the sink's image, FNV-1a of the recovered half cut)`.
fn image_hashes(scheme: UpdateScheme) -> (u64, u64) {
    let mut config = SystemConfig::for_scheme(scheme);
    config.record_persists = true;
    let profile = spec::benchmark("gcc").unwrap();
    let setup = SimSetup::for_profile(config, &profile, SEED).unwrap();
    let trace = setup.generate_trace(INSTRUCTIONS);
    let path = temp_image(scheme.name());
    let mut sim = setup.simulation();
    sim.attach_durable_sink(DurableSink::create(&path, setup.config(), SEED).unwrap());
    let (report, finished) = sim.run_with_state(&trace);
    assert_eq!(finished.durable_error(), None);
    let bytes = std::fs::read(&path).unwrap();

    std::fs::write(&path, &bytes[..half_the_frames(&bytes)]).unwrap();
    let key = setup.config().key;
    let cut = replay_image(&path, key).unwrap();
    let expected = ObserverExpectation::from_complete_ids(&report.records, &cut.complete_ids);
    let manager = RecoveryManager::for_config(setup.config());
    let wb = recover_image(&path, key, &manager, &report.records, &expected, None).unwrap();
    assert!(wb.rewritten, "{scheme}: a raw cut is rewritten");
    let recovered = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    (fnv1a(&bytes), fnv1a(&recovered))
}

#[test]
fn device_and_recovered_images_are_byte_identical_to_their_pins() {
    let got: Vec<_> = PINS
        .iter()
        .map(|&(scheme, _, _)| {
            let (sink, recovered) = image_hashes(scheme);
            (scheme, sink, recovered)
        })
        .collect();
    assert_eq!(got, PINS);
}
