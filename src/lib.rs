//! `rle-systolic` — a complete Rust reproduction of *"A Systolic Algorithm
//! to Process Compressed Binary Images"* (Ercal, Allen & Feng, IPPS 1999).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on one crate; the examples under `examples/` and the integration
//! suites under `tests/` are built against it.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`rle`] | `crates/rle` | RLE substrate: runs, rows, images, boolean ops, morphology, storage format |
//! | [`archive`] | `crates/archive` | versioned delta store: keyframes + per-row XOR deltas keyed by row signatures |
//! | [`bitimg`] | `crates/bitimg` | dense bitmaps, PBM I/O, parallel dense ops, conversions |
//! | [`systolic_core`] | `crates/core` | the paper's systolic machine, engines, traces, §6 extensions |
//! | [`workload`] | `crates/workload` | the §5 generator, error models, PCB/motion/glyph scenarios |
//! | [`rle_analysis`] | `crates/analysis` | components, features, template matching, 2-D morphology |
//! | [`harness`] | `crates/harness` | the experiments regenerating every paper artefact |
//!
//! # One-minute tour
//!
//! ```
//! use rle_systolic::prelude::*;
//!
//! // Encode two rows (the paper's Figure 1) and diff them on the machine.
//! let a = RleRow::from_pairs(40, &[(10, 3), (16, 2), (23, 2), (27, 3)])?;
//! let b = RleRow::from_pairs(40, &[(3, 4), (8, 5), (15, 5), (23, 2), (27, 4)])?;
//! let (diff, stats) = systolic_xor(&a, &b)?;
//! assert_eq!(stats.iterations, 3); // Figure 3's published cycle count
//!
//! // The same primitive drives whole-image work: difference masks can be
//! // cleaned, labelled and classified without ever decompressing.
//! let mask = RleImage::from_rows(40, vec![diff])?;
//! let labeling = label_components(&mask, Connectivity::Eight);
//! assert_eq!(labeling.count(), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use archive;
pub use bitimg;
pub use diffd;
pub use harness;
pub use rle;
pub use rle_analysis;
pub use systolic_core;
pub use workload;

/// The names almost every user of the library wants in scope.
pub mod prelude {
    pub use bitimg::{BitRow, Bitmap};
    pub use rle::{RleImage, RleRow, Run};
    pub use rle_analysis::{label_components, Connectivity};
    pub use systolic_core::bus::{systolic_xor_bus, systolic_xor_mesh, BusArray, BusMode};
    pub use systolic_core::image::{xor_image, RowPipeline};
    pub use systolic_core::{
        systolic_xor, ArrayStats, DiffExecutorConfig, Kernel, SystolicArray, SystolicError,
    };
    pub use workload::{ErrorModel, GenParams, RowGenerator};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_names_resolve() {
        use crate::prelude::*;
        let row = RleRow::from_pairs(16, &[(0, 4)]).unwrap();
        let (diff, _) = systolic_xor(&row, &row.clone()).unwrap();
        assert!(diff.is_empty());
        let _ = (
            Bitmap::new(4, 4),
            BitRow::new(4),
            Connectivity::Four,
            BusMode::Mesh,
        );
    }
}
