//! Multi-history synchronization strategies (Section 2.2).

use serde::Serialize;

/// How tentative histories pick their original database state when several
/// mobile nodes are active at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SyncStrategy {
    /// **Strategy 1**: each tentative history starts from the master state
    /// snapshotted at its own disconnect time. Merging one mobile's history
    /// retroactively changes the base states other mobiles snapshotted, so
    /// a later merge "may fail to find a subhistory of `H_b` into which
    /// [the tentative history] can be merged" — the simulator detects this
    /// by comparing the stored snapshot against the (retro-patched) base
    /// log and falls back to reprocessing on mismatch.
    PerDisconnectSnapshot,
    /// **Strategy 2** (the paper's choice): every tentative history in a
    /// window starts from the same state — the master state at the window
    /// start. Merges always find their sub-history; the cost is that the
    /// base history to merge against grows over the window, so the origin
    /// is reset every `window` ticks, and a node that fails to reconnect
    /// within its window gets its history reprocessed instead of merged.
    WindowStart {
        /// Window length in ticks.
        window: u64,
    },
    /// Strategy 2 with the paper's "reset periodically because otherwise
    /// the back-out cost of mergers will increase substantially as the base
    /// history grows longer" rule made quantitative: a new window opens as
    /// soon as the base history since the window start reaches `max_hb`
    /// committed transactions, instead of on a fixed clock.
    AdaptiveWindow {
        /// Maximum base-history length a window is allowed to reach.
        max_hb: usize,
    },
}

impl SyncStrategy {
    /// Short name for experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            SyncStrategy::PerDisconnectSnapshot => "strategy1-per-disconnect",
            SyncStrategy::WindowStart { .. } => "strategy2-window",
            SyncStrategy::AdaptiveWindow { .. } => "strategy2-adaptive",
        }
    }
}

/// The reconnection path, kept only as the type of
/// [`SimConfig::sync_path`](crate::SimConfig::sync_path).
///
/// It selects nothing: every reconnection runs the resumable session
/// protocol (offer → merge → install → re-execute → ack), which injects
/// and recovers from the faults of [`SimConfig::fault`](crate::SimConfig::fault)
/// and runs fault-free under [`FaultPlan::none`]. The one variant exists
/// so that configurations which still spell out `sync_path:
/// SyncPath::Session` keep compiling.
///
/// [`FaultPlan::none`]: crate::fault::FaultPlan::none
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SyncPath {
    /// The resumable session protocol — the only reconnection path.
    Session,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(SyncStrategy::PerDisconnectSnapshot.name(), "strategy1-per-disconnect");
        assert_eq!(SyncStrategy::WindowStart { window: 100 }.name(), "strategy2-window");
        assert_eq!(SyncStrategy::AdaptiveWindow { max_hb: 50 }.name(), "strategy2-adaptive");
    }
}
