//! RAII span timers: `let _g = obs::span!("alloc.drp.split_scan")`
//! records elapsed nanoseconds into the histogram of the same name
//! when the guard drops; with span-tree profiling on it also opens a
//! node in [`crate::tree`], which tracks nesting.

use std::time::Instant;

use crate::metrics::Histogram;

/// Guard returned by [`crate::span!`]; records on drop.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    active: Option<(&'static Histogram, Instant)>,
    /// Tree-node handle when span-tree profiling is on
    /// ([`crate::tree::set_profiling`]); `None` in the common
    /// histogram-only case.
    node: Option<usize>,
}

impl SpanGuard {
    /// Opens a span. When recording is off the guard is inert and
    /// never reads the clock.
    pub fn enter(name: &'static str, histogram: &'static Histogram) -> Self {
        if !crate::enabled() {
            return SpanGuard { active: None, node: None };
        }
        let node = crate::tree::open_span(name);
        SpanGuard { active: Some((histogram, Instant::now())), node }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((histogram, start)) = self.active.take() {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            // force_record: the span was live when opened; a mid-span
            // toggle must not unbalance the tree or lose the sample.
            histogram.force_record(nanos);
            if let Some(idx) = self.node.take() {
                crate::tree::close_span(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_when_disabled() {
        let _guard = crate::TEST_SWITCH_LOCK.lock().unwrap();
        crate::set_enabled(false);
        let h = crate::registry().histogram("span.test.disabled");
        drop(SpanGuard::enter("span.test.disabled", h));
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn records_and_nests_when_enabled() {
        let _guard = crate::TEST_SWITCH_LOCK.lock().unwrap();
        crate::set_enabled(true);
        let outer = crate::registry().histogram("span.test.outer");
        let inner = crate::registry().histogram("span.test.inner");
        {
            let _a = SpanGuard::enter("span.test.outer", outer);
            let _b = SpanGuard::enter("span.test.inner", inner);
        }
        assert_eq!(outer.count(), 1);
        assert_eq!(inner.count(), 1);
    }
}
