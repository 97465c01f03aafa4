//! Shared execution configuration for every pipeline: one
//! [`ExecutionConfig`] embedded in each pipeline configuration, set through
//! the [`HasExecution`] `with_*` methods.

/// Shell kept only because `benchmark/src/layers.rs` passes
/// [`HasExecution::simd`] into `gstg::rasterize_groups_into_with` by value;
/// it selects nothing and goes in the `[benchmark]` PR of ROADMAP item 2a.
///
/// There is one projection loop (8-wide chunks) and one full-walk tile
/// kernel (16×16 blocks); the kernel is checked against
/// [`crate::reference`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdMode {
    /// The only value.
    #[default]
    Wide8,
}

/// Shell kept only because `benchmark/src/layers.rs` names it; it goes in ROADMAP item 2a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpanMode {
    /// The only value.
    #[default]
    Full,
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
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ExecutionConfig {
    /// Single-threaded execution.
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// Parallel execution over the given number of worker threads
    /// (clamped to at least one).
    pub fn parallel(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
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

    /// Shorthand for the configured worker thread count.
    fn threads(&self) -> usize {
        self.execution().threads
    }

    /// Always [`SimdMode::Wide8`]; see [`SimdMode`].
    fn simd(&self) -> SimdMode {
        SimdMode::Wide8
    }

    /// Always [`SpanMode::Full`]; see [`SpanMode`].
    fn span(&self) -> SpanMode {
        SpanMode::Full
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
}
