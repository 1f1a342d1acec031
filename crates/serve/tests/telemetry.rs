//! The live telemetry plane, end to end through the server: frame-ctx
//! propagation on delivered frames, mid-flight Prometheus scrapes that
//! stay consistent with final accounting, SLO burn-rate breaches firing
//! the flight recorder, and fault-storm dumps.

use rpr_core::{EncMask, EncodedFrame, FrameMetadata, PixelStatus};
use rpr_serve::{
    session_script, AdmitCode, Clock, ManualClock, ScrapeClient, ScriptedClient, Server,
    SloConfig, TenantBridge, TenantConfig,
};
use rpr_stream::BackpressureMode;
use std::sync::Arc;

fn frames(n: u64) -> Vec<EncodedFrame> {
    (0..n)
        .map(|i| {
            let mut mask = EncMask::new(16, 8);
            mask.set((i % 16) as u32, 2, PixelStatus::Regional);
            EncodedFrame::new(16, 8, i, vec![i as u8], FrameMetadata::from_mask(mask))
        })
        .collect()
}

fn container(n: u64) -> Vec<u8> {
    rpr_wire::write_container(&frames(n)).expect("write container")
}

/// Pulls the value of `family{tenant="..."}` off an exposition page.
fn scraped_counter(page: &str, family: &str, tenant: &str) -> Option<u64> {
    let prefix = format!("{family}{{tenant=\"{tenant}\"}} ");
    page.lines().find_map(|l| l.strip_prefix(prefix.as_str())).and_then(|v| v.parse().ok())
}

#[test]
fn delivered_frames_carry_a_causal_frame_ctx() {
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::new(clock.clone());
    server.add_tenant("fleet-a", TenantConfig::unlimited());
    server.add_tenant("fleet-b", TenantConfig::unlimited());
    let listener = server.listener();

    let script = session_script("fleet-b", 9, &container(5), 256, true);
    let mut cam = ScriptedClient::connect(&listener, 1 << 16, script);
    let queue = server.tenant_queue("fleet-b").unwrap();

    clock.advance(777);
    let mut delivered = Vec::new();
    for _ in 0..10_000 {
        cam.flush();
        server.step();
        while let Some(d) = queue.try_pop() {
            delivered.push(d);
        }
        if server.is_idle() && cam.done() {
            break;
        }
    }
    assert_eq!(delivered.len(), 5);
    for (i, d) in delivered.iter().enumerate() {
        assert_eq!(d.ctx.tenant, 1, "dense id follows registration order");
        assert_eq!(d.ctx.camera, 9);
        assert_eq!(d.ctx.session, d.session_id);
        assert_eq!(d.ctx.frame_seq, i as u64, "per-session sequence");
        assert_eq!(d.ctx.ingest_micros, d.accepted_micros);
        assert_eq!(d.ctx.ingest_micros, 777);
        // Validated once at ingest: DecodeCapture skips the full check.
        assert!(d.frame.is_validated());
    }
}

#[test]
fn mid_flight_scrape_is_consistent_with_final_accounting() {
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::new(clock.clone()).with_read_quantum(512);
    server.add_tenant(
        "acme",
        TenantConfig::unlimited().with_slo(SloConfig::default()),
    );
    let listener = server.listener();

    let script = session_script("acme", 3, &container(24), 64, true);
    let mut cam = ScriptedClient::connect(&listener, 1 << 10, script);
    let queue = server.tenant_queue("acme").unwrap();
    let live = server.tenant_live("acme").expect("live handle");

    let mut scraper: Option<ScrapeClient> = None;
    let mut mid_flight_page: Option<String> = None;
    let mut popped = 0u64;
    for step in 0..10_000 {
        cam.flush();
        clock.advance(50);
        server.step();
        while let Some(d) = queue.try_pop() {
            let now = clock.now_micros();
            live.record_delivery(now, now.saturating_sub(d.ctx.ingest_micros));
            popped += 1;
        }
        // Start the scrape only once ingest is demonstrably mid-flight.
        if scraper.is_none() && popped > 0 && !cam.done() {
            scraper = Some(ScrapeClient::connect(&listener, 1 << 16, "acme", 999));
        }
        if let Some(s) = scraper.as_mut() {
            if mid_flight_page.is_none() {
                mid_flight_page = s.poll().map(str::to_string);
            }
        }
        if server.is_idle() && cam.done() && step > 50 {
            break;
        }
    }
    assert!(server.is_idle(), "server failed to drain");
    let page = mid_flight_page.expect("scrape completed while serving");

    let snap_accepted = scraped_counter(&page, "rpr_frames_accepted_total", "acme")
        .expect("accepted counter on the page");
    let final_accepted = live.frames_accepted.value();
    assert!(snap_accepted > 0, "scrape happened after ingest started");
    assert!(
        snap_accepted <= final_accepted,
        "mid-flight snapshot ({snap_accepted}) cannot exceed the final count ({final_accepted})"
    );
    assert_eq!(final_accepted, 24);
    assert_eq!(popped, 24);
    assert_eq!(live.frames_delivered.value(), 24);

    // The page carries the summary quantiles and the SLO gauge.
    assert!(page.contains("rpr_delivery_latency_us{tenant=\"acme\",quantile=\"0.99\"}"));
    assert!(page.contains("rpr_slo_burn_rate{tenant=\"acme\"}"));

    // The final exposition agrees with the final live counters.
    let final_page = server.render_metrics();
    assert_eq!(
        scraped_counter(&final_page, "rpr_frames_accepted_total", "acme"),
        Some(24)
    );
    assert_eq!(
        scraped_counter(&final_page, "rpr_frames_delivered_total", "acme"),
        Some(24)
    );
}

#[test]
fn slo_breach_fires_the_flight_recorder_once_per_episode() {
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::new(clock.clone());
    let slo = SloConfig {
        target_delivery_us: 10_000,
        budget_fraction: 0.01,
        window_micros: 1_000_000,
        min_events: 4,
    };
    server.add_tenant(
        "freeloader",
        TenantConfig::unlimited().with_frame_quota(0, 0).with_slo(slo),
    );
    let listener = server.listener();

    let script = session_script("freeloader", 1, &container(10), 256, true);
    let mut cam = ScriptedClient::connect(&listener, 1 << 16, script);
    for _ in 0..10_000 {
        cam.flush();
        server.step();
        if server.is_idle() && cam.done() {
            break;
        }
    }
    assert_eq!(cam.admit_code(), Some(AdmitCode::Accepted));

    let sections = server.slo_sections();
    let s = sections.iter().find(|s| s.tenant == "freeloader").expect("slo section");
    assert_eq!(s.bad_events, 10, "every throttled frame burns budget");
    assert_eq!(s.good_events, 0);
    assert!(s.burn_rate >= 1.0, "burn {} must breach", s.burn_rate);
    assert_eq!(s.breaches, 1, "one breach episode, not one per step");
    assert_eq!(s.flight_dumps, 1);

    let dump = server.take_flight_dump().expect("breach dumped the flight recorder");
    assert!(dump.contains("\"traceEvents\""), "chrome trace-event shape");
    assert!(dump.contains("{\"name\":\"rpr-serve\"}"), "process metadata");
    assert!(dump.contains("freeloader/camera-1"), "tenant/camera track name");
    assert!(dump.contains("serve.admit"), "admission spans captured");
    serde_json::from_str::<serde_json::Value>(&dump).expect("dump parses as JSON");
    assert!(server.take_flight_dump().is_none(), "dump is taken once");

    // The live report carries the SLO section for rpr-report diffing.
    let report = server.live_report();
    let slos = report.slos.as_deref().expect("slos section present");
    assert!(slos.iter().any(|s| s.tenant == "freeloader" && s.breaches == 1));
    let text = report.render_text();
    assert!(text.contains("freeloader"), "{text}");
}

#[test]
fn session_fault_storm_dumps_the_flight_recorder() {
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::new(clock.clone()).with_fault_storm(2, 1_000_000);
    server.add_tenant("acme", TenantConfig::unlimited());
    let listener = server.listener();

    // Two sessions that each commit a protocol crime (data after bye).
    let mut clients: Vec<ScriptedClient> = (0..2)
        .map(|i| {
            let mut script = session_script("acme", i, &container(1), 256, true);
            script.extend_from_slice(&rpr_serve::protocol::encode_data(b"zombie"));
            ScriptedClient::connect(&listener, 1 << 16, script)
        })
        .collect();
    let queue = server.tenant_queue("acme").unwrap();
    for _ in 0..10_000 {
        for c in clients.iter_mut() {
            c.flush();
        }
        server.step();
        while queue.try_pop().is_some() {}
        if server.is_idle() && clients.iter().all(|c| c.done()) {
            break;
        }
    }
    assert_eq!(server.stats().sessions_errored, 2);
    let dump = server.take_flight_dump().expect("storm dumped the flight recorder");
    assert!(dump.contains("\"traceEvents\""));
}

#[test]
fn bridge_feeds_live_delivery_latency_and_slo() {
    let clock = Arc::new(ManualClock::new());
    let mut server = Server::new(clock.clone());
    server.add_tenant(
        "fleet",
        TenantConfig::unlimited().with_slo(SloConfig::default()),
    );
    let listener = server.listener();

    let queue = server.tenant_queue("fleet").unwrap();
    let live = server.tenant_live("fleet").unwrap();
    let bridge = TenantBridge::start_with_live(
        Arc::clone(&queue),
        16,
        BackpressureMode::Block,
        Arc::clone(&live),
        clock.clone() as Arc<dyn Clock>,
        move |_camera, mut source| {
            std::thread::spawn(move || {
                use rpr_stream::FrameSource;
                while source.next_frame().is_some() {}
            });
        },
    );

    let script = session_script("fleet", 4, &container(8), 128, true);
    let mut cam = ScriptedClient::connect(&listener, 1 << 16, script);
    for _ in 0..10_000 {
        cam.flush();
        clock.advance(100);
        server.step();
        if server.is_idle() && cam.done() {
            break;
        }
    }
    assert!(server.is_idle());
    server.close_tenant_queues();
    assert_eq!(bridge.join(), 8, "all frames routed");

    assert_eq!(live.frames_delivered.value(), 8);
    let snap = live.delivery_us.snapshot();
    assert_eq!(snap.count, 8, "bridge recorded every routed latency");
    let (good, bad) = live.slo().unwrap().window_totals(clock.now_micros());
    assert_eq!(good + bad, 8, "SLO saw every delivery");
}
