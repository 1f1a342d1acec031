//! Known-bad: the kernel is allocation-free, but the policy entry
//! misspells its name, so without the unresolved-entry finding the
//! lint would check nothing and pass.

pub fn kernel(out: &mut [u8], src: &[u8]) {
    out.copy_from_slice(src);
}
