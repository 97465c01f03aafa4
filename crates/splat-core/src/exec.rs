//! Shared execution configuration for every pipeline: one
//! [`ExecutionConfig`] embedded in each pipeline configuration, set through
//! the [`HasExecution`] `with_*` methods.

/// Lane width of the chunked (SIMD-shaped) kernels used by the projection
/// transform and the tile blending inner loop.
///
/// `Wide8` processes fixed-size `[f32; 8]` chunks whose per-lane operations
/// are the *same scalar operations in the same order* as the scalar path (no
/// fused multiply-add), so both modes produce bit-identical images and
/// identical operation counts — the knob only changes how the work is laid
/// out for the compiler's auto-vectorizer. `Wide8` is the default because it
/// is the fastest point on every benchmark input (README "Kernels and
/// modes"); `Scalar` is the reference the tests compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdMode {
    /// One splat / pixel at a time (the reference path).
    Scalar,
    /// 8-wide chunked kernels.
    #[default]
    Wide8,
}

impl SimdMode {
    /// Every mode, scalar first.
    pub const ALL: [SimdMode; 2] = [SimdMode::Scalar, SimdMode::Wide8];

    /// Lane width of the chunked kernels (1 for the scalar path).
    #[inline]
    pub fn lanes(self) -> usize {
        match self {
            SimdMode::Scalar => 1,
            SimdMode::Wide8 => 8,
        }
    }

    /// Stable human-readable label (used by benches and reports).
    pub fn label(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Wide8 => "wide8",
        }
    }
}

/// Pixel coverage strategy of the tile blending inner loop.
///
/// `RowSpans` walks, for every splat, only the per-row x-interval where the
/// splat's α can reach the 1/255 cull threshold (solved analytically from
/// the conic), and stops consuming a tile's sorted list once every pixel
/// has fired its transmittance early-exit. Skipped work is exactly work the
/// α-cull would have discarded, so both modes produce bit-identical pixels;
/// only `StageCounts::alpha_computations` (and the span counters) differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpanMode {
    /// Every (pixel, splat) pair of the tile is evaluated (the reference
    /// path).
    #[default]
    Full,
    /// Per-splat conservative row intervals plus the tile-saturation
    /// early-out.
    RowSpans,
}

impl SpanMode {
    /// Every mode, full walk first.
    pub const ALL: [SpanMode; 2] = [SpanMode::Full, SpanMode::RowSpans];

    /// Stable human-readable label (used by benches and reports).
    pub fn label(self) -> &'static str {
        match self {
            SpanMode::Full => "full",
            SpanMode::RowSpans => "rows",
        }
    }
}

/// Execution parameters shared by every pipeline configuration.
///
/// The struct is `#[non_exhaustive]`: construct it through
/// [`ExecutionConfig::default`], [`ExecutionConfig::sequential`] or
/// [`ExecutionConfig::parallel`] and adjust it through the public fields or
/// the [`HasExecution`] `with_*` methods, so future execution knobs can be
/// added without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct ExecutionConfig {
    /// Number of worker threads for the rasterization fan-out
    /// (1 = sequential; operation counts are unaffected either way).
    pub threads: usize,
    /// Lane width of the chunked projection/blending kernels. Every mode is
    /// bit-identical; see [`SimdMode`].
    pub simd: SimdMode,
    /// Pixel coverage strategy of the blending loop. Every mode is
    /// bit-identical; see [`SpanMode`].
    pub span: SpanMode,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ExecutionConfig {
    /// Single-threaded execution with the default kernels.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            simd: SimdMode::default(),
            span: SpanMode::default(),
        }
    }

    /// Parallel execution over the given number of worker threads
    /// (clamped to at least one).
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            simd: SimdMode::default(),
            span: SpanMode::default(),
        }
    }
}

/// Implemented by every pipeline configuration that embeds an
/// [`ExecutionConfig`]. The provided `with_*` methods are the one way to
/// set an execution knob on any pipeline configuration.
pub trait HasExecution: Sized {
    /// The embedded execution configuration.
    fn execution(&self) -> &ExecutionConfig;

    /// Mutable access for the provided `with_*` methods.
    fn execution_mut(&mut self) -> &mut ExecutionConfig;

    /// Returns a copy with the worker thread count replaced (clamped to at
    /// least one).
    fn with_threads(mut self, threads: usize) -> Self {
        self.execution_mut().threads = threads.max(1);
        self
    }

    /// Returns a copy with the SIMD lane-width mode replaced.
    fn with_simd(mut self, simd: SimdMode) -> Self {
        self.execution_mut().simd = simd;
        self
    }

    /// Returns a copy with the pixel coverage strategy replaced.
    fn with_span(mut self, span: SpanMode) -> Self {
        self.execution_mut().span = span;
        self
    }

    /// Shorthand for the configured worker thread count.
    fn threads(&self) -> usize {
        self.execution().threads
    }

    /// Shorthand for the configured SIMD mode.
    fn simd(&self) -> SimdMode {
        self.execution().simd
    }

    /// Shorthand for the configured span mode.
    fn span(&self) -> SpanMode {
        self.execution().span
    }
}

impl HasExecution for ExecutionConfig {
    fn execution(&self) -> &ExecutionConfig {
        self
    }

    fn execution_mut(&mut self) -> &mut ExecutionConfig {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential_gpu() {
        let exec = ExecutionConfig::default();
        assert_eq!(exec.threads, 1);
        assert_eq!(exec, ExecutionConfig::sequential());
    }

    #[test]
    fn parallel_clamps_to_one_thread() {
        assert_eq!(ExecutionConfig::parallel(0).threads, 1);
        assert_eq!(ExecutionConfig::parallel(8).threads, 8);
    }

    #[test]
    fn with_threads_is_the_single_knob() {
        let exec = ExecutionConfig::sequential().with_threads(4);
        assert_eq!(exec.threads, 4);
        assert_eq!(ExecutionConfig::sequential().with_threads(0).threads, 1);
    }

    #[test]
    fn simd_modes_expose_lane_widths_and_labels() {
        assert_eq!(
            SimdMode::ALL.map(SimdMode::lanes),
            [1, 8],
            "lane widths are pinned"
        );
        assert_eq!(SimdMode::ALL.map(SimdMode::label), ["scalar", "wide8"]);
        // The default is the measured winner, however the config is built.
        assert_eq!(SimdMode::default(), SimdMode::Wide8);
        for exec in [
            ExecutionConfig::default(),
            ExecutionConfig::sequential(),
            ExecutionConfig::parallel(4),
        ] {
            assert_eq!(exec.simd, SimdMode::Wide8);
        }
        let exec = ExecutionConfig::sequential().with_simd(SimdMode::Scalar);
        assert_eq!(exec.simd(), SimdMode::Scalar);
    }

    #[test]
    fn span_modes_expose_labels_and_the_builder_knob() {
        assert_eq!(SpanMode::default(), SpanMode::Full);
        assert_eq!(SpanMode::ALL.map(SpanMode::label), ["full", "rows"]);
        let exec = ExecutionConfig::sequential().with_span(SpanMode::RowSpans);
        assert_eq!(exec.span(), SpanMode::RowSpans);
        assert_eq!(ExecutionConfig::default().span, SpanMode::Full);
    }
}
