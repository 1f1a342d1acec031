//! Known-bad: one lock, no cycle, but the policy scope misspells the
//! directory, so without the unmatched-scope finding the lint would
//! check nothing and pass.

use std::sync::Mutex;

pub struct Pair {
    a: Mutex<u32>,
}

impl Pair {
    pub fn bump(&self) {
        *self.a.lock().unwrap() += 1;
    }
}
