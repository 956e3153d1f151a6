//! End-to-end integration: realistic pipelines spanning every crate —
//! workload generation → PBM interchange → RLE encoding → systolic
//! difference → verification against the dense ground truth.

use rle_systolic::bitimg::{convert, ops as dops, pbm};
use rle_systolic::harness::experiments::{fig1, fig3};
use rle_systolic::systolic_core::image::xor_image;
use rle_systolic::systolic_core::{DiffExecutorConfig, Kernel};
use rle_systolic::workload::motion::{Scene, SceneParams};
use rle_systolic::workload::pcb::{inspection_pair, typical_defects, PcbParams};
use rle_systolic::workload::{glyphs, ErrorModel, GenParams, RowGenerator};

#[test]
fn pcb_inspection_end_to_end() {
    let params = PcbParams {
        width: 1024,
        height: 128,
        ..Default::default()
    };
    let (reference, scan) = inspection_pair(&params, &typical_defects(), 7);

    // Ship the scan through PBM, as a real acquisition pipeline would.
    let scan_dense = convert::decode(&scan);
    let mut p4 = Vec::new();
    pbm::write_p4(&scan_dense, &mut p4).unwrap();
    let received = pbm::read(&mut &p4[..]).unwrap();
    assert_eq!(received, scan_dense, "PBM transport must be lossless");
    let received_rle = convert::encode(&received);
    assert_eq!(received_rle, scan);

    // Systolic inspection result equals the dense ground truth.
    let (diff, stats) = xor_image(&reference, &received_rle).unwrap();
    let truth = dops::xor(&convert::decode(&reference), &scan_dense);
    assert_eq!(convert::decode(&diff), truth);
    assert!(stats.rows == 128);

    // Defects exist and are sparse.
    assert!(diff.ones() > 0, "injected defects must be visible");
    assert!(
        diff.density() < 0.01,
        "defects must be sparse: {}",
        diff.density()
    );

    // Parallel row processing on the executor's systolic kernel changes
    // nothing.
    let (par_diff, par_stats) = DiffExecutorConfig::new(4)
        .kernel(Kernel::Systolic)
        .build()
        .diff_images(&reference, &received_rle)
        .unwrap();
    assert_eq!(par_diff, diff);
    assert_eq!(par_stats.totals.iterations, stats.totals.iterations);
}

#[test]
fn motion_pipeline_systolic_matches_dense() {
    let scene = Scene::new(
        SceneParams {
            width: 320,
            height: 64,
            objects: 3,
            max_speed: 2.0,
        },
        9,
    );
    let frames = scene.sequence(4);
    for t in 1..frames.len() {
        let (diff, _) = xor_image(&frames[t - 1], &frames[t]).unwrap();
        let truth = dops::xor(
            &convert::decode(&frames[t - 1]),
            &convert::decode(&frames[t]),
        );
        assert_eq!(convert::decode(&diff), truth, "frame {t}");
    }
}

#[test]
fn motion_frames_are_cheap_for_the_systolic_machine() {
    let scene = Scene::new(
        SceneParams {
            width: 640,
            height: 128,
            objects: 4,
            max_speed: 2.0,
        },
        3,
    );
    let (f0, f1) = (scene.frame_rle(0), scene.frame_rle(1));
    let (_, stats) = xor_image(&f0, &f1).unwrap();
    // Consecutive frames are similar: the worst row needs only a few
    // iterations even though rows hold many runs.
    assert!(
        stats.max_row_iterations <= 8,
        "slowest row took {} iterations",
        stats.max_row_iterations
    );
}

#[test]
fn glyph_recognition_picks_the_right_template() {
    let scanned = glyphs::perturb(&glyphs::render("7", 2), 6, 11);
    let scanned_rle = convert::encode(&scanned);
    let mut best: Option<(char, u64)> = None;
    for c in '0'..='9' {
        let template = glyphs::render_rle(&c.to_string(), 2);
        let (diff, _) = xor_image(&template, &scanned_rle).unwrap();
        let score = diff.ones();
        if best.is_none() || score < best.unwrap().1 {
            best = Some((c, score));
        }
    }
    assert_eq!(best.unwrap().0, '7');
}

#[test]
fn paper_workload_statistics_are_sane() {
    // The full §5 pipeline: generate, perturb, measure.
    let params = GenParams::for_density(10_000, 0.3);
    let mut gen = RowGenerator::new(params, 123);
    let a = gen.next_row();
    assert!((a.density() - 0.3).abs() < 0.06);
    assert!(
        (a.run_count() as f64 - 250.0).abs() < 60.0,
        "{} runs",
        a.run_count()
    );

    let b = rle_systolic::workload::apply_errors(&a, &ErrorModel::fraction(0.05), 5);
    let (diff, stats) = rle_systolic::systolic_core::systolic_xor(&a, &b).unwrap();
    assert_eq!(diff, rle_systolic::rle::ops::xor(&a, &b));
    // Similar images: far fewer iterations than the sequential k1 + k2.
    let (_, seq) = rle_systolic::rle::ops::xor_raw_with_stats(&a, &b);
    assert!(
        stats.iterations < seq.iterations / 2,
        "systolic {} vs sequential {}",
        stats.iterations,
        seq.iterations
    );
}

#[test]
fn harness_golden_experiments_pass() {
    assert!(fig1::run().all_match());
    assert_eq!(fig3::run().iterations, 3);
}

#[test]
fn image_round_trip_through_ascii_and_rle() {
    let art = "\
.####..####.\n\
.#..#..#..#.\n\
.####..####.\n";
    let img = rle_systolic::rle::RleImage::from_ascii(art);
    assert_eq!(img.to_ascii(), art);
    let dense = convert::decode(&img);
    assert_eq!(convert::encode(&dense), img);
}
