//! Output discipline: per-job grouping, `--keep-order` reordering, and
//! `--tag` prefixes.

use std::collections::BTreeMap;

use crate::job::JobResult;

/// Buffers completed jobs and releases them in sequence order.
///
/// GNU Parallel's `-k` guarantee: output is emitted in *input* order even
/// though jobs finish out of order. `push` returns every result that has
/// become releasable (the contiguous run starting at the next expected
/// sequence number); `pass` marks a sequence number that will produce
/// no result, so nothing waits for it.
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    next: u64,
    /// Results waiting for an earlier sequence number; `None` marks a
    /// passed one.
    pending: BTreeMap<u64, Option<JobResult>>,
}

impl ReorderBuffer {
    /// An empty buffer expecting sequence number 1 first.
    pub fn new() -> ReorderBuffer {
        ReorderBuffer {
            next: 1,
            pending: BTreeMap::new(),
        }
    }

    /// Insert a completed job; get back everything now in order.
    pub fn push(&mut self, result: JobResult) -> Vec<JobResult> {
        self.pending.insert(result.seq, Some(result));
        self.release()
    }

    /// Pass over `seq`, which will produce no result (a task never run);
    /// get back everything now in order.
    pub fn pass(&mut self, seq: u64) -> Vec<JobResult> {
        if seq >= self.next {
            self.pending.insert(seq, None);
        }
        self.release()
    }

    /// The contiguous run of results from the next expected seq.
    fn release(&mut self) -> Vec<JobResult> {
        let mut ready = Vec::new();
        while let Some(r) = self.pending.remove(&self.next) {
            ready.extend(r);
            self.next += 1;
        }
        ready
    }

    /// Jobs held back waiting for earlier sequence numbers.
    pub fn pending(&self) -> usize {
        self.pending.values().filter(|r| r.is_some()).count()
    }

    /// Drain whatever is left (used when a halt policy abandons part of
    /// the sequence), in sequence order.
    pub fn drain(&mut self) -> Vec<JobResult> {
        if let Some((&last, _)) = self.pending.last_key_value() {
            self.next = last + 1;
        }
        std::mem::take(&mut self.pending)
            .into_values()
            .flatten()
            .collect()
    }
}

/// Apply `--tag`-style prefixes: each output line is prefixed with the
/// job's arguments (tab-separated from the content).
pub fn tag_lines(args: &[String], text: &str) -> String {
    if text.is_empty() {
        return String::new();
    }
    let tag = args.join(" ");
    let mut out = String::with_capacity(text.len() + 16);
    for line in text.split_inclusive('\n') {
        out.push_str(&tag);
        out.push('\t');
        out.push_str(line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobResult;

    fn result(seq: u64) -> JobResult {
        JobResult::skipped(seq, vec![format!("arg{seq}")], format!("cmd {seq}"))
    }

    #[test]
    fn in_order_arrivals_release_immediately() {
        let mut buf = ReorderBuffer::new();
        for seq in 1..=3 {
            let out = buf.push(result(seq));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].seq, seq);
        }
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn out_of_order_arrivals_buffer_until_gap_fills() {
        let mut buf = ReorderBuffer::new();
        assert!(buf.push(result(3)).is_empty());
        assert!(buf.push(result(2)).is_empty());
        assert_eq!(buf.pending(), 2);
        let out = buf.push(result(1));
        assert_eq!(out.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn release_resumes_after_each_gap() {
        let mut buf = ReorderBuffer::new();
        assert_eq!(buf.push(result(1)).len(), 1);
        assert!(buf.push(result(4)).is_empty());
        assert_eq!(buf.push(result(2)).len(), 1);
        let out = buf.push(result(3));
        assert_eq!(out.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn drain_returns_stragglers_in_order() {
        let mut buf = ReorderBuffer::new();
        buf.push(result(5));
        buf.push(result(3));
        let drained = buf.drain();
        assert_eq!(
            drained.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 5]
        );
        assert_eq!(buf.pending(), 0);
    }

    /// A passed seq never arrives, and nothing waits for it.
    #[test]
    fn passed_seqs_release_what_waits_behind_them() {
        let seqs = |out: Vec<JobResult>| out.iter().map(|r| r.seq).collect::<Vec<_>>();
        let mut buf = ReorderBuffer::new();
        assert!(buf.push(result(3)).is_empty());
        assert!(buf.pass(4).is_empty(), "passed ahead of the gap");
        assert!(buf.push(result(5)).is_empty());
        assert_eq!(seqs(buf.push(result(1))), vec![1]);
        assert_eq!(buf.pending(), 2);
        assert_eq!(seqs(buf.pass(2)), vec![3, 5]);
        assert_eq!(buf.pending(), 0);
        assert!(buf.pass(1).is_empty(), "a seq already released is ignored");
        assert_eq!(seqs(buf.push(result(6))), vec![6]);
        buf.pass(9);
        buf.push(result(8));
        assert_eq!(seqs(buf.drain()), vec![8]);
        assert_eq!(seqs(buf.push(result(10))), vec![10]);
    }

    #[test]
    fn tag_prefixes_every_line() {
        let args = vec!["x".to_string(), "y".to_string()];
        assert_eq!(tag_lines(&args, "a\nb\n"), "x y\ta\nx y\tb\n");
        assert_eq!(tag_lines(&args, "no-newline"), "x y\tno-newline");
        assert_eq!(tag_lines(&args, ""), "");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn any_permutation_releases_in_order(order in Just((1u64..=20).collect::<Vec<_>>()).prop_shuffle()) {
                let mut buf = ReorderBuffer::new();
                let mut released = Vec::new();
                for seq in order {
                    released.extend(buf.push(result(seq)).into_iter().map(|r| r.seq));
                }
                prop_assert_eq!(released, (1u64..=20).collect::<Vec<_>>());
            }
        }
    }
}
