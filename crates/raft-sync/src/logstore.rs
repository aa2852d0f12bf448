//! SyncRaft's log store.
//!
//! Raft-java keeps its log in a segmented store; this analog keeps the
//! entries behind a small API with explicit truncate-and-append
//! semantics — the home of the `log_truncation_bug` switch (Raft-java
//! bug #2: the conflicting-suffix truncation is off by one).

use mocket_dsnet::Storage;
use mocket_tla::{vrec, Value};

/// One log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Leader term that created the entry.
    pub term: i64,
    /// The client datum.
    pub data: i64,
}

impl LogEntry {
    /// The spec-record shape.
    pub fn to_value(&self) -> Value {
        vrec! { term => self.term, value => self.data }
    }
}

/// A durable, in-order entry store; every change is written through
/// to the node's disk.
#[derive(Debug, Clone)]
pub struct LogStore {
    entries: Vec<LogEntry>,
    buggy_truncation: bool,
}

impl LogStore {
    /// Opens the store, recovering persisted entries.
    pub fn open(disk: &Storage<Value>, buggy_truncation: bool) -> Self {
        let entries = disk
            .get("log")
            .and_then(|v| {
                v.as_seq().map(|items| {
                    items
                        .iter()
                        .map(|e| LogEntry {
                            term: e.expect_field("term").expect_int(),
                            data: e.expect_field("value").expect_int(),
                        })
                        .collect()
                })
            })
            .unwrap_or_default();
        LogStore {
            entries,
            buggy_truncation,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> i64 {
        self.entries.len() as i64
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// 1-indexed entry access.
    pub fn get(&self, index: i64) -> Option<&LogEntry> {
        if index >= 1 {
            self.entries.get(index as usize - 1)
        } else {
            None
        }
    }

    /// Term of the entry at `index` (0 outside the log).
    pub fn term_at(&self, index: i64) -> i64 {
        self.get(index).map(|e| e.term).unwrap_or(0)
    }

    /// Term of the last entry.
    pub fn last_term(&self) -> i64 {
        self.entries.last().map(|e| e.term).unwrap_or(0)
    }

    /// Appends one entry (leader path).
    pub fn append(&mut self, disk: &mut Storage<Value>, entry: LogEntry) {
        self.entries.push(entry);
        self.persist(disk);
    }

    /// Replaces everything after `prev_index` with `incoming`
    /// (follower path). The conformant version truncates the
    /// conflicting suffix starting at `prev_index + 1`; the buggy
    /// version keeps the first conflicting entry (off by one) and
    /// appends after it.
    pub fn splice(&mut self, disk: &mut Storage<Value>, prev_index: i64, incoming: &[LogEntry]) {
        if incoming.is_empty() {
            return;
        }
        let insert_at = prev_index as usize; // 0-based position of first incoming
        let already_there = self
            .entries
            .get(insert_at)
            .map(|e| e.term == incoming[0].term)
            .unwrap_or(false);
        if already_there {
            return; // Idempotent re-delivery.
        }
        let cut = if self.buggy_truncation && self.entries.len() > insert_at {
            // Raft-java bug #2: the conflicting entry survives.
            insert_at + 1
        } else {
            insert_at
        };
        self.entries.truncate(cut);
        self.entries.extend(incoming.iter().cloned());
        self.persist(disk);
    }

    /// The spec-sequence shape of the whole log.
    pub fn to_value(&self) -> Value {
        Value::seq(self.entries.iter().map(LogEntry::to_value))
    }

    fn persist(&self, disk: &mut Storage<Value>) {
        disk.put("log", self.to_value());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(buggy: bool) -> (LogStore, Storage<Value>) {
        let disk = Storage::default();
        (LogStore::open(&disk, buggy), disk)
    }

    #[test]
    fn append_and_access() {
        let (mut s, mut disk) = store(false);
        s.append(&mut disk, LogEntry { term: 2, data: 1 });
        s.append(&mut disk, LogEntry { term: 3, data: 2 });
        assert_eq!(s.len(), 2);
        assert_eq!(s.term_at(1), 2);
        assert_eq!(s.term_at(2), 3);
        assert_eq!(s.term_at(3), 0);
        assert_eq!(s.last_term(), 3);
    }

    #[test]
    fn splice_replaces_conflicting_suffix() {
        let (mut s, mut disk) = store(false);
        s.append(&mut disk, LogEntry { term: 2, data: 1 });
        s.splice(&mut disk, 0, &[LogEntry { term: 3, data: 9 }]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(1).unwrap().term, 3);
        assert_eq!(s.get(1).unwrap().data, 9);
    }

    #[test]
    fn splice_is_idempotent_on_same_term() {
        let (mut s, mut disk) = store(false);
        s.append(&mut disk, LogEntry { term: 2, data: 1 });
        s.splice(&mut disk, 0, &[LogEntry { term: 2, data: 1 }]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn buggy_truncation_keeps_conflicting_entry() {
        let (mut s, mut disk) = store(true);
        s.append(&mut disk, LogEntry { term: 2, data: 1 });
        s.splice(&mut disk, 0, &[LogEntry { term: 3, data: 9 }]);
        // The conflicting term-2 entry survives; the new entry lands
        // after it.
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).unwrap().term, 2);
        assert_eq!(s.get(2).unwrap().term, 3);
    }

    #[test]
    fn log_survives_reopen() {
        let (mut s, mut disk) = store(false);
        s.append(&mut disk, LogEntry { term: 2, data: 7 });
        let s = LogStore::open(&disk, false);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(1).unwrap().data, 7);
    }

    #[test]
    fn empty_splice_is_noop() {
        let (mut s, mut disk) = store(true);
        s.append(&mut disk, LogEntry { term: 2, data: 1 });
        s.splice(&mut disk, 0, &[]);
        assert_eq!(s.len(), 1);
    }
}
