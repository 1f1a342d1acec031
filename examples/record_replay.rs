//! Record/replay: capture a synthetic sequence through the rhythmic
//! pipeline, spill the encoded stream into an in-memory `.rpr`
//! container, then replay it through a fresh decoder and check the
//! replayed task inputs are byte-identical to what the live run saw.
//!
//! Run with: `cargo run --release --example record_replay`

use rhythmic_pixel_regions::core::Feature;
use rhythmic_pixel_regions::frame::Plane;
use rhythmic_pixel_regions::wire::ContainerReader;
use rhythmic_pixel_regions::workloads::{
    replay_task_inputs, Baseline, Pipeline, PipelineConfig, Recorder,
};

fn main() {
    let (width, height) = (128u32, 96u32);
    let frames = 12u32;

    // 1. A live pipeline with a recorder tapped into its encoded
    //    branch: every EncodedFrame the capture side produces is also
    //    appended to an in-memory `.rpr` container as it streams by.
    let cfg = PipelineConfig::new(width, height, Baseline::Rp { cycle_length: 5 });
    let recorder = Recorder::new().expect("in-memory container");
    let mut pipeline = Pipeline::new(cfg);
    pipeline.set_encoded_tap(recorder.tap());

    // 2. Run a synthetic capture: a textured scene with a feature
    //    cluster drifting across it, which the policy tracks.
    let mut live_inputs = Vec::new();
    for t in 0..frames {
        let frame = Plane::from_fn(width, height, |x, y| {
            let drift = (x + 2 * t) % width;
            ((drift * 5) ^ (y * 9)) as u8
        });
        let fx = 20.0 + 2.0 * f64::from(t);
        let features = vec![
            Feature::new(fx, 30.0, 14.0).with_displacement(2.0),
            Feature::new(fx + 18.0, 52.0, 10.0).with_displacement(1.5),
        ];
        live_inputs.push(pipeline.process_frame(&frame, features, vec![]));
    }
    drop(pipeline);

    // 3. Finish the container: index chunk + trailer appended, every
    //    frame chunk CRC-guarded, frame digests sealed at encode time.
    let (bytes, stats) = recorder.finish().expect("container finalizes");
    println!(
        "recorded {} frames: {} payload bytes, masks {} B raw -> {} B written \
         ({} run-coded), container {} B",
        stats.frames,
        stats.payload_bytes,
        stats.raw_mask_bytes,
        stats.mask_bytes_written,
        stats.run_frames,
        stats.container_bytes,
    );

    // 4. Zero-copy inspection: views borrow the payload straight from
    //    the container bytes, no per-frame allocation.
    let reader = ContainerReader::open(&bytes).expect("container opens");
    let borrowed = (0..reader.len())
        .filter(|&i| reader.view(i).expect("view parses").mask_is_borrowed())
        .count();
    println!(
        "container indexes {} frames ({} with zero-copy raw masks)",
        reader.len(),
        borrowed,
    );

    // 5. Replay through a fresh decoder. The decoder's output is a
    //    pure function of the encoded stream, so the replayed task
    //    inputs must equal the live run's — byte for byte.
    let replayed = replay_task_inputs(&bytes).expect("container replays");
    assert_eq!(replayed.len(), live_inputs.len());
    for (t, (live, back)) in live_inputs.iter().zip(&replayed).enumerate() {
        assert_eq!(live, back, "frame {t} diverged on replay");
    }
    println!(
        "replayed {} task inputs byte-identical to the live run — \
         the archive is a deterministic fixture",
        replayed.len(),
    );
}
