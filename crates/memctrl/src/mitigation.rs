//! The controller-side mitigation interface.
//!
//! MC-side schemes (PARA, Graphene, TWiCe, CBT, BlockHammer — Table I of
//! the paper) observe activations from the controller's vantage point and
//! react with one of two remedies:
//!
//! * **ARR** — an adjacent-row-refresh command naming victim rows (the
//!   remedy deprecated in DDR5 but used by prior work);
//! * **throttling** — delaying future activations of a row/thread
//!   (BlockHammer).
//!
//! # The release contract
//!
//! A throttle is an **absolute simulated time**: [`activate_allowed_at`]
//! returns the earliest time a request may activate, with 0 meaning
//! "unconstrained". A scheme's releases may change only inside
//! [`on_activate`] and [`on_auto_refresh`]; after each of those calls the
//! controller takes [`take_release_change`], which names the banks whose
//! releases moved. The event-driven scheduler caches each bank's
//! activation pick and recomputes it only for the banks named there (and
//! the banks the command itself touched), so a release that changes
//! without being reported would make the two scheduler cores diverge —
//! debug builds check every event-core ACT against a fresh rescan.
//!
//! [`activate_allowed_at`]: McMitigation::activate_allowed_at
//! [`on_activate`]: McMitigation::on_activate
//! [`on_auto_refresh`]: McMitigation::on_auto_refresh
//! [`take_release_change`]: McMitigation::take_release_change

use mithril_dram::{BankId, RowId, TimePs};

/// What the mitigation wants the controller to do after an ACT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McAction {
    /// Nothing to do.
    None,
    /// Issue an ARR refreshing `victims` on `bank` as soon as possible.
    Arr {
        /// Target bank.
        bank: BankId,
        /// Victim rows to refresh.
        victims: Vec<RowId>,
    },
}

/// Which banks' activation releases changed — the invalidation report a
/// throttle source hands the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReleaseChange {
    /// No release changed.
    #[default]
    None,
    /// Releases of requests on this bank changed.
    Bank(BankId),
    /// Releases may have changed on every bank.
    All,
}

/// A controller-side Row Hammer mitigation.
///
/// Throttling schemes implement [`activate_allowed_at`] and
/// [`take_release_change`] under the release contract of the module docs;
/// ARR-only schemes implement neither.
///
/// [`activate_allowed_at`]: McMitigation::activate_allowed_at
/// [`take_release_change`]: McMitigation::take_release_change
///
/// # Example
///
/// ```
/// use mithril_dram::{BankId, RowId, TimePs};
/// use mithril_memctrl::{McAction, McMitigation};
///
/// /// Refresh neighbours of every 1000th activation (a toy PARA).
/// struct Every1000(u64);
///
/// impl McMitigation for Every1000 {
///     fn on_activate(
///         &mut self,
///         bank: BankId,
///         row: RowId,
///         _thread: usize,
///         _now: TimePs,
///     ) -> McAction {
///         self.0 += 1;
///         if self.0 % 1000 == 0 {
///             McAction::Arr { bank, victims: vec![row.saturating_sub(1), row + 1] }
///         } else {
///             McAction::None
///         }
///     }
///     fn name(&self) -> &'static str {
///         "every-1000"
///     }
/// }
/// ```
pub trait McMitigation {
    /// Observes an ACT of `row` on `bank` issued on behalf of `thread`.
    fn on_activate(&mut self, bank: BankId, row: RowId, thread: usize, now: TimePs) -> McAction;

    /// Earliest time the controller may activate `row` on `bank` for
    /// `thread` — the throttling hook. An absolute simulated time, not a
    /// delay from now; 0 (the default) means unconstrained.
    fn activate_allowed_at(&self, bank: BankId, row: RowId, thread: usize) -> TimePs {
        let _ = (bank, row, thread);
        0
    }

    /// Auto-refresh notification for `bank` rows `lo..hi` (TWiCe-style
    /// housekeeping). Default: ignored.
    fn on_auto_refresh(&mut self, bank: BankId, lo: RowId, hi: RowId) {
        let _ = (bank, lo, hi);
    }

    /// Takes the release changes made by the [`on_activate`] and
    /// [`on_auto_refresh`] calls since the last take. The controller calls
    /// it after each of them. A change confined to the activated bank, or
    /// to the refreshed rank, needs no report: the controller recomputes
    /// those banks anyway. Default: nothing changed.
    ///
    /// [`on_activate`]: McMitigation::on_activate
    /// [`on_auto_refresh`]: McMitigation::on_auto_refresh
    fn take_release_change(&mut self) -> ReleaseChange {
        ReleaseChange::None
    }

    /// Scheme name for reporting.
    fn name(&self) -> &'static str;
}

/// The unit MC-side mitigation: observes and does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMcMitigation;

impl McMitigation for NoMcMitigation {
    fn on_activate(
        &mut self,
        _bank: BankId,
        _row: RowId,
        _thread: usize,
        _now: TimePs,
    ) -> McAction {
        McAction::None
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_mitigation_never_acts() {
        let mut m = NoMcMitigation;
        assert_eq!(m.on_activate(0, 0, 0, 0), McAction::None);
        assert_eq!(m.activate_allowed_at(0, 0, 0), 0);
        assert_eq!(m.take_release_change(), ReleaseChange::None);
        assert_eq!(m.name(), "none");
    }
}
