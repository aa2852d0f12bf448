//! Pinned expectations (`expected/pins.txt`, compiled in): exact graph
//! and path counts per model, the verdict every case of a workload
//! must reach, and the per-seed totals for the two reference seeds.

use std::collections::BTreeMap;

const PINS: &str = include_str!("../expected/pins.txt");

/// `key = value` lines; `#` starts a comment.
pub struct Pins(BTreeMap<&'static str, &'static str>);

impl Pins {
    pub fn load() -> Pins {
        Pins::parse(PINS)
    }

    fn parse(text: &'static str) -> Pins {
        Pins(
            text.lines()
                .map(|l| l.split('#').next().unwrap_or("").trim())
                .filter(|l| !l.is_empty())
                .map(|l| {
                    let (k, v) = l.split_once('=').expect("pins.txt lines are `key = value`");
                    (k.trim(), v.trim())
                })
                .collect(),
        )
    }

    pub fn text(&self, key: &str) -> Option<&'static str> {
        self.0.get(key).copied()
    }

    pub fn count(&self, key: &str) -> Option<u64> {
        self.text(key)
            .map(|v| v.parse().expect("pinned counts are whole numbers"))
    }

    /// A pinned index set written as `a..b,c,d..e` (half-open ranges).
    pub fn index_set(&self, key: &str) -> IndexSet {
        IndexSet::parse(self.text(key).unwrap_or(""))
    }
}

/// Half-open index ranges.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct IndexSet(Vec<(usize, usize)>);

impl IndexSet {
    pub fn parse(text: &str) -> IndexSet {
        IndexSet(
            text.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(|part| {
                    let idx = |s: &str| {
                        s.trim()
                            .parse::<usize>()
                            .expect("pinned indices are whole numbers")
                    };
                    match part.split_once("..") {
                        Some((a, b)) => (idx(a), idx(b)),
                        None => (idx(part), idx(part) + 1),
                    }
                })
                .collect(),
        )
    }

    pub fn contains(&self, idx: usize) -> bool {
        self.0.iter().any(|&(a, b)| a <= idx && idx < b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_keys_comments_and_ranges() {
        let pins =
            Pins::parse("# models\nm.states = 12 # trailing\n\nm.failing = 2..5, 9,11..12\n");
        assert_eq!(pins.count("m.states"), Some(12));
        assert_eq!(pins.count("m.edges"), None);
        let set = pins.index_set("m.failing");
        let hits: Vec<usize> = (0..14).filter(|&i| set.contains(i)).collect();
        assert_eq!(hits, [2, 3, 4, 9, 11]);
        assert_eq!(pins.index_set("absent"), IndexSet::default());
    }

    #[test]
    fn shipped_pins_parse() {
        let pins = Pins::load();
        assert!(pins.count("raft-java.states").is_some());
    }
}
