use rpr_core::EncodedFrame;
use rpr_frame::PixelFormat;
use serde::{Deserialize, Serialize};

/// Pixel-memory traffic generated by one frame, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameTraffic {
    /// Payload bytes written to the framebuffer.
    pub payload_write: u64,
    /// Metadata bytes written (EncMask + row offsets).
    pub metadata_write: u64,
    /// Payload bytes read back by the vision consumer.
    pub payload_read: u64,
    /// Metadata bytes read by the decoder.
    pub metadata_read: u64,
}

impl FrameTraffic {
    /// A frame whose `payload` and `metadata` bytes are each written
    /// once and read back once.
    pub fn written_and_read(payload: u64, metadata: u64) -> Self {
        FrameTraffic {
            payload_write: payload,
            metadata_write: metadata,
            payload_read: payload,
            metadata_read: metadata,
        }
    }

    /// Total bytes written this frame.
    pub fn write_bytes(&self) -> u64 {
        self.payload_write + self.metadata_write
    }

    /// Total bytes read this frame.
    pub fn read_bytes(&self) -> u64 {
        self.payload_read + self.metadata_read
    }

    /// Total bytes moved this frame.
    pub fn total_bytes(&self) -> u64 {
        self.write_bytes() + self.read_bytes()
    }
}

/// Aggregated traffic over a frame sequence — the rows of the paper's
/// Fig. 8 throughput axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficSummary {
    /// Frames recorded.
    pub frames: u64,
    /// Total bytes written.
    pub write_bytes: u64,
    /// Total bytes read.
    pub read_bytes: u64,
    /// Metadata share of the writes, bytes.
    pub metadata_bytes: u64,
    /// Average write+read throughput in MB/s at the recorder's fps.
    pub throughput_mb_s: f64,
    /// Average bytes moved per frame.
    pub bytes_per_frame: f64,
}

/// Accounts per-frame pixel traffic into running totals and summarizes
/// them at a frame rate — the paper's throughput simulator (§5.3.1).
/// It keeps no per-frame series: memory stays constant however many
/// frames are recorded.
///
/// # Example
///
/// ```
/// use rpr_memsim::{FrameTraffic, TrafficRecorder};
///
/// let mut rec = TrafficRecorder::new(30.0);
/// // Capture writes a raw frame; the consumer reads it back.
/// rec.record_frame(FrameTraffic { payload_write: 1000, payload_read: 1000, ..Default::default() });
/// let s = rec.summary();
/// assert_eq!(s.write_bytes, 1000);
/// assert_eq!(s.read_bytes, 1000);
/// assert_eq!(s.frames, 1);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficRecorder {
    fps: f64,
    /// Traffic of the frame being recorded, before it is closed.
    current: FrameTraffic,
    frames: u64,
    write_bytes: u64,
    read_bytes: u64,
    metadata_bytes: u64,
}

impl TrafficRecorder {
    /// Creates a recorder summarizing at `fps` frames per second.
    ///
    /// # Panics
    ///
    /// Panics when `fps` is not strictly positive.
    pub fn new(fps: f64) -> Self {
        assert!(fps > 0.0, "fps must be positive");
        TrafficRecorder {
            fps,
            current: FrameTraffic::default(),
            frames: 0,
            write_bytes: 0,
            read_bytes: 0,
            metadata_bytes: 0,
        }
    }

    /// The configured frame rate.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Records an encoded frame's write traffic (payload + metadata) and
    /// closes the frame. `format` scales payload pixels into bytes.
    pub fn record_encoded_write(&mut self, frame: &EncodedFrame, format: PixelFormat) {
        self.record_frame(FrameTraffic {
            payload_write: (frame.pixel_count() * format.bytes_per_pixel()) as u64,
            metadata_write: frame.metadata_bytes() as u64,
            ..FrameTraffic::default()
        });
    }

    /// Records a full decoded read-back of an encoded frame: payload plus
    /// metadata are read once each. The frame stays open until
    /// [`Self::record_encoded_write`] or [`Self::record_frame`] closes it.
    pub fn record_encoded_read(&mut self, frame: &EncodedFrame, format: PixelFormat) {
        self.current.payload_read +=
            (frame.pixel_count() * format.bytes_per_pixel()) as u64;
        self.current.metadata_read += frame.metadata_bytes() as u64;
    }

    /// Adds `traffic` to the open frame, closes it into the running
    /// totals and starts the next one.
    pub fn record_frame(&mut self, traffic: FrameTraffic) {
        let c = &mut self.current;
        c.payload_write += traffic.payload_write;
        c.metadata_write += traffic.metadata_write;
        c.payload_read += traffic.payload_read;
        c.metadata_read += traffic.metadata_read;
        let frame = std::mem::take(c);
        if rpr_trace::is_enabled() {
            rpr_trace::counter_for_frame(
                rpr_trace::names::DRAM_WRITE_BYTES,
                "memsim",
                self.frames,
                frame.write_bytes() as f64,
            );
            rpr_trace::counter_for_frame(
                rpr_trace::names::DRAM_READ_BYTES,
                "memsim",
                self.frames,
                frame.read_bytes() as f64,
            );
        }
        self.frames += 1;
        self.write_bytes += frame.write_bytes();
        self.read_bytes += frame.read_bytes();
        self.metadata_bytes += frame.metadata_write + frame.metadata_read;
    }

    /// Aggregates the closed frames.
    pub fn summary(&self) -> TrafficSummary {
        let bytes_per_frame = if self.frames == 0 {
            0.0
        } else {
            (self.write_bytes + self.read_bytes) as f64 / self.frames as f64
        };
        TrafficSummary {
            frames: self.frames,
            write_bytes: self.write_bytes,
            read_bytes: self.read_bytes,
            metadata_bytes: self.metadata_bytes,
            throughput_mb_s: bytes_per_frame * self.fps / 1.0e6,
            bytes_per_frame,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_core::{RegionLabel, RegionList, RhythmicEncoder};
    use rpr_frame::Plane;

    fn encoded_quarter() -> EncodedFrame {
        let frame = Plane::from_fn(32, 32, |x, y| (x + y) as u8);
        let regions =
            RegionList::new(32, 32, vec![RegionLabel::new(0, 0, 16, 16, 1, 1)]).unwrap();
        RhythmicEncoder::new(32, 32).encode(&frame, 0, &regions)
    }

    #[test]
    fn encoded_write_counts_payload_and_metadata() {
        let mut rec = TrafficRecorder::new(30.0);
        let enc = encoded_quarter();
        rec.record_encoded_write(&enc, PixelFormat::Gray8);
        let s = rec.summary();
        assert_eq!(s.write_bytes, (256 + enc.metadata_bytes()) as u64);
        assert_eq!(s.metadata_bytes, enc.metadata_bytes() as u64);
    }

    #[test]
    fn format_scales_payload_not_metadata() {
        let enc = encoded_quarter();
        let mut gray = TrafficRecorder::new(30.0);
        gray.record_encoded_write(&enc, PixelFormat::Gray8);
        let mut rgb = TrafficRecorder::new(30.0);
        rgb.record_encoded_write(&enc, PixelFormat::Rgb888);
        let dg = gray.summary().write_bytes - gray.summary().metadata_bytes;
        let dr = rgb.summary().write_bytes - rgb.summary().metadata_bytes;
        assert_eq!(dr, 3 * dg);
        assert_eq!(gray.summary().metadata_bytes, rgb.summary().metadata_bytes);
    }

    fn written(bytes: u64) -> FrameTraffic {
        FrameTraffic { payload_write: bytes, ..FrameTraffic::default() }
    }

    #[test]
    fn throughput_is_bytes_per_frame_times_fps() {
        let mut rec = TrafficRecorder::new(10.0);
        rec.record_frame(written(1_000_000));
        rec.record_frame(written(3_000_000));
        let s = rec.summary();
        assert_eq!(s.frames, 2);
        assert!((s.bytes_per_frame - 2.0e6).abs() < 1e-9);
        assert!((s.throughput_mb_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn reads_and_writes_are_separated() {
        let mut rec = TrafficRecorder::new(30.0);
        rec.record_frame(FrameTraffic {
            payload_read: 500,
            payload_write: 200,
            ..FrameTraffic::default()
        });
        let s = rec.summary();
        assert_eq!(s.read_bytes, 500);
        assert_eq!(s.write_bytes, 200);
    }

    #[test]
    fn empty_recorder_summary_is_zero() {
        let rec = TrafficRecorder::new(30.0);
        let s = rec.summary();
        assert_eq!(s.frames, 0);
        assert_eq!(s.throughput_mb_s, 0.0);
    }

    #[test]
    fn open_frame_is_closed_by_the_next_record() {
        let enc = encoded_quarter();
        let mut rec = TrafficRecorder::new(30.0);
        rec.record_encoded_read(&enc, PixelFormat::Gray8);
        assert_eq!(rec.summary(), TrafficRecorder::new(30.0).summary());
        rec.record_frame(written(100));
        let s = rec.summary();
        assert_eq!(s.frames, 1);
        assert_eq!(s.read_bytes, (256 + enc.metadata_bytes()) as u64);
        assert_eq!(s.write_bytes, 100);
        assert_eq!(s.metadata_bytes, enc.metadata_bytes() as u64);
    }

    #[test]
    #[should_panic(expected = "fps")]
    fn zero_fps_panics() {
        let _ = TrafficRecorder::new(0.0);
    }
}
