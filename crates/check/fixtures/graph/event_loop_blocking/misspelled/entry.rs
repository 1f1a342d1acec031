//! Known-bad: the loop never blocks, but the policy entry names a
//! method the server does not have, so without the unresolved-entry
//! finding the lint would check nothing and pass.

pub struct Server;

impl Server {
    pub fn step(&self) {}
}
