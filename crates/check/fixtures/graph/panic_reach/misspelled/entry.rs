//! Known-bad: the entry cannot panic, but the policy scope misspells
//! its file, so without the unmatched-scope finding the lint would
//! check nothing and pass.

pub fn parse(d: &[u8]) -> Option<u8> {
    d.first().copied()
}
