//! On-chip buffer occupancy model.
//!
//! Each GS-TG core owns a double-buffered 42 KB SRAM (Table III: 4 cores ×
//! 2 × 42 KB). During rasterization one buffer holds the current group's
//! sorted splat features and bitmasks while the other is filled with the
//! next group's data. The model checks whether a group's working set fits
//! and, when it does not, charges the extra DRAM refetch traffic the spill
//! would cause.

use crate::dram::GAUSSIAN_FEATURE_BYTES;

/// Bytes of on-chip state per group entry: the preprocessed features plus
/// the 16-bit tile bitmask and the sorted index.
pub(crate) const GROUP_ENTRY_BYTES: u64 = GAUSSIAN_FEATURE_BYTES + 2 + 4;

/// Occupancy analysis of the per-core group buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct BufferReport {
    /// Capacity of one buffer in bytes.
    pub(crate) capacity_bytes: u64,
    /// Size of the largest group working set in bytes.
    pub(crate) peak_group_bytes: u64,
    /// Number of groups whose working set exceeded the buffer.
    pub(crate) spilled_groups: u64,
    /// Additional DRAM traffic caused by refetching spilled entries.
    pub(crate) spill_bytes: u64,
}

impl BufferReport {
    /// Analyses per-group entry counts against a buffer of
    /// `capacity_bytes`. A group that does not fit must stream its overflow
    /// entries from DRAM once more per tile row it renders, which the model
    /// approximates as one extra fetch of the overflowing entries.
    pub(crate) fn analyze(
        group_entry_counts: impl IntoIterator<Item = u64>,
        capacity_bytes: u64,
    ) -> Self {
        let mut report = BufferReport {
            capacity_bytes,
            ..BufferReport::default()
        };
        for entries in group_entry_counts {
            let bytes = entries * GROUP_ENTRY_BYTES;
            report.peak_group_bytes = report.peak_group_bytes.max(bytes);
            if bytes > capacity_bytes {
                report.spilled_groups += 1;
                report.spill_bytes += bytes - capacity_bytes;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_within_capacity_do_not_spill() {
        let report = BufferReport::analyze([10, 100, 500], 42 * 1024);
        assert_eq!(report.spilled_groups, 0);
        assert_eq!(report.spill_bytes, 0);
        assert_eq!(report.peak_group_bytes, 500 * GROUP_ENTRY_BYTES);
    }

    #[test]
    fn oversized_groups_spill() {
        // 42 KB / 30 B per entry ≈ 1434 entries fit.
        let report = BufferReport::analyze([2000], 42 * 1024);
        assert_eq!(report.spilled_groups, 1);
        assert!(report.spill_bytes > 0);
    }

    #[test]
    fn empty_input_is_trivially_fitting() {
        let report = BufferReport::analyze(std::iter::empty(), 42 * 1024);
        assert_eq!(report.spilled_groups, 0);
        assert_eq!(report.peak_group_bytes, 0);
    }

    #[test]
    fn zero_capacity_reports_zero_utilization() {
        let report = BufferReport::analyze([10], 0);
        assert!(report.spilled_groups > 0);
    }
}
