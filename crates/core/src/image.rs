//! Whole-image differencing on the systolic machine.
//!
//! The hardware diffs one row pair at a time (Figure 1: "Row of Image 1" vs
//! "Row of Image 2"); an image is processed by streaming its rows through
//! the array. This module provides that loop on a single simulated array —
//! the reference every parallel path is tested against. To spread rows
//! across host threads (each worker simulating its own array, like several
//! systolic chips scanning different board regions), use the persistent
//! pool in [`crate::engine::executor::DiffExecutor`] with
//! [`crate::Kernel::Systolic`].

use crate::array::SystolicArray;
use crate::error::SystolicError;
use crate::stats::ArrayStats;
use rle::{RleImage, RleRow};

/// Aggregate statistics for an image-level diff.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImageDiffStats {
    /// Sum of all per-row counters. `totals.iterations` is the number of
    /// systolic iterations a single physical array would spend streaming
    /// every row through.
    pub totals: ArrayStats,
    /// The slowest row's iteration count — the latency bound when each row
    /// has its own array (fully parallel hardware).
    pub max_row_iterations: u64,
    /// Number of row pairs processed.
    pub rows: usize,
}

impl ImageDiffStats {
    fn absorb_row(&mut self, stats: &ArrayStats) {
        self.totals.absorb(stats);
        self.max_row_iterations = self.max_row_iterations.max(stats.iterations);
        self.rows += 1;
    }
}

pub(crate) fn check_dims(a: &RleImage, b: &RleImage) -> Result<(), SystolicError> {
    if a.width() != b.width() {
        return Err(SystolicError::WidthMismatch {
            left: a.width(),
            right: b.width(),
        });
    }
    if a.height() != b.height() {
        return Err(SystolicError::HeightMismatch {
            left: a.height(),
            right: b.height(),
        });
    }
    Ok(())
}

/// A reusable row-differencing pipeline: one simulated array through which
/// row pairs stream, reusing the register-file allocation between rows —
/// exactly how a physical chip processes a whole image.
#[derive(Debug, Default)]
pub struct RowPipeline {
    array: Option<SystolicArray>,
    /// Aggregate statistics over every row pair processed so far.
    pub totals: ImageDiffStats,
}

impl RowPipeline {
    /// Creates an empty pipeline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Diffs one row pair, accumulating statistics.
    pub fn diff(&mut self, a: &RleRow, b: &RleRow) -> Result<RleRow, SystolicError> {
        let array = match self.array.as_mut() {
            Some(array) => {
                array.reload(a, b)?;
                array
            }
            None => self.array.insert(SystolicArray::load(a, b)?),
        };
        array.run()?;
        let row = array.extract()?;
        self.totals.absorb_row(array.stats());
        Ok(row)
    }
}

/// Diffs two images row by row on a single simulated array (streamed
/// through a [`RowPipeline`], as the hardware would).
pub fn xor_image(a: &RleImage, b: &RleImage) -> Result<(RleImage, ImageDiffStats), SystolicError> {
    check_dims(a, b)?;
    let mut pipeline = RowPipeline::new();
    let mut rows = Vec::with_capacity(a.height());
    for (ra, rb) in a.rows().iter().zip(b.rows()) {
        rows.push(pipeline.diff(ra, rb)?);
    }
    let image = RleImage::from_rows(a.width(), rows).expect("row widths preserved");
    Ok((image, pipeline.totals))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff_row(a: &RleRow, b: &RleRow) -> Result<(RleRow, ArrayStats), SystolicError> {
        let mut array = SystolicArray::load(a, b)?;
        array.run()?;
        Ok((array.extract()?, *array.stats()))
    }

    fn img(art: &str) -> RleImage {
        RleImage::from_ascii(art)
    }

    #[test]
    fn image_diff_matches_sequential_reference() {
        let a = img("####....\n..##..##\n........\n#.#.#.#.\n");
        let b = img("####....\n..##..#.\n...##...\n.#.#.#.#\n");
        let (got, stats) = xor_image(&a, &b).unwrap();
        assert_eq!(got, a.xor(&b).unwrap());
        assert_eq!(stats.rows, 4);
        assert!(stats.max_row_iterations <= stats.totals.iterations.max(1));
    }

    #[test]
    fn identical_images_give_empty_diff() {
        let a = img("##..##..\n.######.\n");
        let (got, stats) = xor_image(&a, &a.clone()).unwrap();
        assert_eq!(got.ones(), 0);
        assert_eq!(stats.totals.output_runs, 0);
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let a = RleImage::new(8, 2);
        assert!(xor_image(&a, &RleImage::new(9, 2)).is_err());
        assert!(xor_image(&a, &RleImage::new(8, 3)).is_err());
    }

    #[test]
    fn pipeline_reuse_matches_fresh_arrays() {
        let a = img("####....\n..##..##\n#.#.#.#.\n........\n");
        let b = img("###.....\n..##..#.\n.#.#.#.#\n...##...\n");
        let mut pipeline = RowPipeline::new();
        for (ra, rb) in a.rows().iter().zip(b.rows()) {
            let via_pipeline = pipeline.diff(ra, rb).unwrap();
            let (via_fresh, fresh_stats) = diff_row(ra, rb).unwrap();
            assert_eq!(via_pipeline, via_fresh);
            let _ = fresh_stats;
        }
        assert_eq!(pipeline.totals.rows, 4);
        // The pipeline's totals equal the per-row sums of fresh runs.
        let (_, image_stats) = xor_image(&a, &b).unwrap();
        assert_eq!(pipeline.totals, image_stats);
    }

    #[test]
    fn pipeline_handles_varying_row_shapes() {
        // Rows with wildly different run counts force reload to regrow and
        // shrink the register file.
        let mut pipeline = RowPipeline::new();
        let wide =
            rle::RleRow::from_pairs(64, &(0..16).map(|i| (i * 4, 2)).collect::<Vec<_>>()).unwrap();
        let empty = rle::RleRow::new(64);
        assert_eq!(pipeline.diff(&wide, &empty).unwrap(), wide);
        assert!(pipeline.diff(&empty, &empty.clone()).unwrap().is_empty());
        assert_eq!(pipeline.diff(&empty, &wide).unwrap(), wide);
        assert!(pipeline.diff(&wide, &wide.clone()).unwrap().is_empty());
        assert_eq!(pipeline.totals.rows, 4);
    }
}
