//! RAII span timers: `let _g = obs::span!("alloc.drp.split_scan")`
//! records elapsed nanoseconds into the histogram of the same name
//! when the guard drops, and maintains a thread-local stack of open
//! span names for diagnostic context.

use std::cell::RefCell;
use std::time::Instant;

use crate::metrics::Histogram;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The names of the spans currently open on this thread, outermost
/// first. Empty when recording is disabled.
pub fn current_stack() -> Vec<&'static str> {
    SPAN_STACK.with(|s| s.borrow().clone())
}

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
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        let node = crate::tree::open_span(name);
        SpanGuard { active: Some((histogram, Instant::now())), node }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((histogram, start)) = self.active.take() {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            // force_record: the span was live when opened; a mid-span
            // toggle must not unbalance the stack or lose the sample.
            histogram.force_record(nanos);
            if let Some(idx) = self.node.take() {
                crate::tree::close_span(idx);
            }
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
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
        {
            let _g = SpanGuard::enter("span.test.disabled", h);
            assert!(current_stack().is_empty());
        }
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
            assert_eq!(current_stack(), vec!["span.test.outer"]);
            {
                let _b = SpanGuard::enter("span.test.inner", inner);
                assert_eq!(current_stack(), vec!["span.test.outer", "span.test.inner"]);
            }
            assert_eq!(current_stack(), vec!["span.test.outer"]);
        }
        assert!(current_stack().is_empty());
        assert_eq!(outer.count(), 1);
        assert_eq!(inner.count(), 1);
    }
}
