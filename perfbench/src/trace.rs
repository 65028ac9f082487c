//! In-memory span tracing for the traced run.
//!
//! A span has a name, an id shared by every span of one chunk or request,
//! a start, an end, a parent and the allocations made while it was open.
//! Spans are kept in memory until the run ends; a span's self time is its
//! duration minus the part of it that its children cover. The recorder is
//! thread-local so that spans can be opened from inside an estimator
//! wrapper that the time plane owns.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc::allocations;

/// Marks a span without a parent.
const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    pub allocs: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    id: u32,
    cap: usize,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, keeping at most `cap` spans.
pub fn start(cap: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(cap),
            open: Vec::new(),
            id: 0,
            cap,
        })
    });
}

/// Stops recording and returns every span recorded on this thread.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// True once the span buffer is full: the traced loop stops there.
pub fn full() -> bool {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .is_some_and(|rec| rec.spans.len() >= rec.cap)
    })
}

/// Starts a new chunk or request: spans opened from now on share a fresh id.
pub fn next_id() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.id += 1;
        }
    });
}

/// Opens a span named `name` under the innermost open span.
pub fn begin(name: &'static str) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let parent = rec.open.last().copied().unwrap_or(ROOT);
            let index = rec.spans.len() as u32;
            rec.spans.push(Span {
                name,
                id: rec.id,
                parent,
                start: rec.origin.elapsed().as_nanos() as u64,
                end: 0,
                allocs: allocations(),
            });
            rec.open.push(index);
        }
    });
}

/// Closes the innermost open span.
pub fn end() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let index = rec.open.pop().expect("span end without a begin") as usize;
            let span = &mut rec.spans[index];
            span.end = rec.origin.elapsed().as_nanos() as u64;
            span.allocs = allocations() - span.allocs;
        }
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    begin(name);
    let out = f();
    end();
    out
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (calls, total self nanoseconds, total allocations).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
        e.2 += s.allocs;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start,
            end,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            at("chunk", ROOT, 0, 100),
            // Overlapping children count once; the one past the parent's
            // end is clipped to it.
            at("a", 0, 10, 30),
            at("b", 0, 20, 40),
            at("c", 0, 90, 120),
            // A grandchild is subtracted from its parent only.
            at("d", 1, 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
        let names = by_name(&spans);
        assert_eq!(names["chunk"], (1, 60, 0));
    }

    #[test]
    fn recorder_nests_and_stops_at_its_cap() {
        start(3);
        next_id();
        span("outer", || span("inner", || ()));
        assert!(!full());
        begin("third");
        end();
        assert!(full());
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, ROOT);
        assert!(spans.iter().all(|s| s.id == 1 && s.end >= s.start));
    }
}
