//! The online (Page's CUSUM) detector against the offline pipeline, on real
//! campaign series — the §8 "continuous monitoring" extension: a streaming
//! monitor deployed at the VP should raise alarms for the same episodes the
//! retrospective analysis finds.

use african_ixp_congestion::chgpt::online::online_events;
use african_ixp_congestion::simnet::prelude::*;
use african_ixp_congestion::study::prelude::*;
use african_ixp_congestion::topology::paper_vps;

fn netpage_series() -> (african_ixp_congestion::tslp::series::LinkSeries, usize) {
    let spec = &paper_vps()[3];
    let cfg = VpStudyConfig {
        window: Some((SimTime::from_date(2016, 2, 22), SimTime::from_date(2016, 5, 20))),
        with_loss: false,
        ..Default::default()
    };
    let study = run_vp_study(spec, &cfg);
    let netpage = study.outcomes.iter().find(|o| o.far_name == "NETPAGE").expect("NETPAGE");
    let offline_events = netpage.assessment.events.len();
    (netpage.series.clone().expect("series kept"), offline_events)
}

#[test]
fn online_matches_offline_on_netpage() {
    let (series, offline_count) = netpage_series();
    let (far, _) = series.far_clean();
    let online = online_events(&far);
    assert!(offline_count > 10, "offline found {offline_count}");
    // The streaming detector sees the same daily episodes, within a
    // tolerance for merged/split edges.
    let ratio = online.len() as f64 / offline_count as f64;
    assert!(
        (0.6..=1.6).contains(&ratio),
        "online {} vs offline {offline_count} events",
        online.len()
    );
}

#[test]
fn online_quiet_after_upgrade() {
    let (series, _) = netpage_series();
    // Feed only the post-upgrade window: no alarms.
    let post = series.window(
        SimTime::from_date(2016, 4, 29),
        SimTime::from_date(2016, 5, 20),
    );
    let (far, _) = post.far_clean();
    let events = online_events(&far);
    assert!(events.is_empty(), "post-upgrade alarms: {events:?}");
}

#[test]
fn online_detector_flags_events_promptly() {
    let (series, _) = netpage_series();
    let (far, idx) = series.far_clean();
    let events = online_events(&far);
    assert!(!events.is_empty());
    // Every alarm lands during phase 1 (before the upgrade) and inside the
    // loaded part of the day; the bulk fire at the ~09:00 episode onsets
    // (a minority re-trigger on the descending evening ramp after the
    // detector closes the main event).
    let upgrade = SimTime::from_date(2016, 4, 29);
    let mut morning = 0usize;
    for (up, _) in &events {
        let t = series.timestamp(idx[*up]);
        assert!(t < upgrade, "alarm after the upgrade at {t}");
        let h = t.hour_of_day();
        assert!((6.0..19.5).contains(&h), "alarm at odd hour {h}");
        if (7.0..13.0).contains(&h) {
            morning += 1;
        }
    }
    assert!(
        morning * 10 >= events.len() * 7,
        "only {morning}/{} alarms at episode onsets",
        events.len()
    );
}
