//! PCB inspection — the application that motivated the paper.
//!
//! A reference-based inspection system compares each scanned board layer
//! against the CAD artwork; the image difference marks candidate defects.
//! This example builds a synthetic board layer, injects manufacturing
//! defects into a "scan", runs the difference in compressed form on the
//! systolic machine (rows in parallel across the executor's worker pool),
//! and reports the defect regions it found.
//!
//! ```text
//! cargo run --example pcb_inspection
//! ```

use rle_systolic::systolic_core::{DiffExecutorConfig, Kernel};
use rle_systolic::workload::pcb::{inspection_pair, typical_defects, PcbParams};

fn main() {
    let params = PcbParams {
        width: 2048,
        height: 512,
        ..Default::default()
    };
    let defects = typical_defects();
    let (reference, scan) = inspection_pair(&params, &defects, 2024);

    println!(
        "reference layer : {}x{}, {} runs, density {:.1}%",
        reference.width(),
        reference.height(),
        reference.total_runs(),
        reference.density() * 100.0
    );
    println!(
        "scanned layer   : {} runs ({} defects injected)",
        scan.total_runs(),
        defects.len()
    );

    // Compressed-domain difference on the systolic machine, one simulated
    // array per executor worker.
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let (diff, stats) = DiffExecutorConfig::new(threads)
        .kernel(Kernel::Systolic)
        .build()
        .diff_images(&reference, &scan)
        .unwrap();

    println!(
        "\nsystolic inspection: {} rows, {} total iterations, slowest row {} iterations",
        stats.rows, stats.totals.iterations, stats.max_row_iterations
    );
    println!(
        "sequential merge would touch all {} + {} runs per row pair; the systolic array only \
         pays for the difference.",
        reference.total_runs(),
        scan.total_runs()
    );

    // Group the difference mask into distinct defects with connected-
    // component labelling (8-connectivity), then classify each by shape.
    use rle_systolic::rle_analysis::components::{label_components, Connectivity};
    use rle_systolic::rle_analysis::features::{by_area_desc, classify_defect, shape_features};

    let labeling = label_components(&diff, Connectivity::Eight);
    println!(
        "\ndefect report: {} pixels flagged, {} distinct defects",
        diff.ones(),
        labeling.count()
    );
    for c in by_area_desc(&labeling) {
        let f = shape_features(&c);
        println!(
            "  {:?} at ({:.0}, {:.0}): {} px, bbox {}x{}, fill {:.0}%",
            classify_defect(&c),
            c.cx,
            c.cy,
            c.area,
            c.bbox_width(),
            c.bbox_height(),
            f.fill_ratio * 100.0
        );
    }
    if labeling.count() == 0 {
        println!("  board is clean — scan matches the CAD reference.");
    }
}
