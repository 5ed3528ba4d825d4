//! ICMP slow-path and nuisance delay models.
//!
//! Two delay generators that are *not* link queueing:
//!
//! - [`DiurnalSlowPath`] — the GIXA–KNET mechanism (§6.2.1): a router whose
//!   control plane is "overloaded at peak times, resulting in slow ICMP
//!   responses". The paper's observed waveform — an everyday pattern, "an
//!   obvious decrease everyday around midnight … a constant RTT value around
//!   20 ms in the afternoon", identical on weekends — is reproduced by a
//!   mid-afternoon bump with a midnight dip and *no* weekday/weekend
//!   modulation.
//! - [`RandomShifts`] — non-diurnal level shifts (routing changes, transport
//!   reroutes, maintenance) that inflate RTT for hours at a time. These are
//!   what populate Table 1's "flagged but no diurnal pattern" population
//!   (VP5: 147 flagged, 0 diurnal): real level shifts a congestion study
//!   must refuse to call congestion.

use crate::profile::Shape;
use ixp_simnet::node::SlowPath;
use ixp_simnet::rng::HashNoise;
use ixp_simnet::time::{SimDuration, SimTime};

/// Diurnal ICMP generation delay (control-plane load), same every day.
#[derive(Clone, Debug)]
pub struct DiurnalSlowPath {
    /// Peak extra delay.
    pub amplitude: SimDuration,
    /// Time-of-day shape.
    pub shape: Shape,
    /// Per-sample jitter fraction (0.1 = ±10 % of the current level).
    pub jitter_frac: f64,
    /// Noise source.
    pub noise: HashNoise,
}

impl DiurnalSlowPath {
    /// The calibrated KNET-like model: ~`amplitude` in the mid-afternoon,
    /// near zero around midnight, every day of the week. The Gaussian bump
    /// keeps the portion that clears the 10 ms threshold to roughly two to
    /// three hours, matching the paper's sanitized `Δt_UD = 2 h 14 min`
    /// while the visible waveform still rises through the whole day.
    pub fn knet_like(amplitude: SimDuration, noise: HashNoise) -> DiurnalSlowPath {
        DiurnalSlowPath {
            amplitude,
            shape: Shape::Bump { peak_hour: 14.5, width_hours: 2.6 },
            jitter_frac: 0.08,
            noise,
        }
    }
}

impl SlowPath for DiurnalSlowPath {
    fn extra_delay(&self, t: SimTime) -> SimDuration {
        let level = self.amplitude.as_secs_f64() * self.shape.at(t.hour_of_day());
        if level <= 0.0 {
            return SimDuration::ZERO;
        }
        let bin = t.as_micros() / (5 * 60 * 1_000_000);
        let j = self.noise.std_normal(0x51, bin).clamp(-2.5, 2.5);
        SimDuration::from_secs_f64((level * (1.0 + self.jitter_frac * j)).max(0.0))
    }
}

/// Sporadic, non-diurnal RTT level shifts.
///
/// Time is divided into fixed epochs; each epoch independently (by hash)
/// hosts at most one shift event with a random start offset, duration, and
/// magnitude. Everything is a pure function of the epoch index, so the model
/// is random-access like the rest of the substrate.
#[derive(Clone, Debug)]
pub struct RandomShifts {
    /// Epoch length (one candidate event per epoch).
    pub epoch: SimDuration,
    /// Probability an epoch hosts an event.
    pub p_event: f64,
    /// Minimum shift magnitude.
    pub min_magnitude: SimDuration,
    /// Maximum shift magnitude.
    pub max_magnitude: SimDuration,
    /// Minimum event duration.
    pub min_duration: SimDuration,
    /// Maximum event duration (must fit in one epoch).
    pub max_duration: SimDuration,
    /// Noise source.
    pub noise: HashNoise,
}

impl RandomShifts {
    /// A model tuned to produce "flagged but not diurnal" links: a couple of
    /// multi-hour shifts per week, magnitudes mostly 5–40 ms so the Table 1
    /// threshold sweep (5/10/15/20 ms) grades the flagged population.
    pub fn nuisance(noise: HashNoise) -> RandomShifts {
        RandomShifts {
            epoch: SimDuration::from_hours(72),
            p_event: 0.35,
            min_magnitude: SimDuration::from_millis(4),
            max_magnitude: SimDuration::from_millis(45),
            min_duration: SimDuration::from_mins(45),
            max_duration: SimDuration::from_hours(12),
            noise,
        }
    }

    fn event_in_epoch(&self, e: u64) -> Option<(SimTime, SimDuration, SimDuration)> {
        if !self.noise.chance(0x61, e, self.p_event) {
            return None;
        }
        let mag_ms = self.noise.range_f64(
            0x62,
            e,
            self.min_magnitude.as_millis_f64(),
            self.max_magnitude.as_millis_f64(),
        );
        let dur_us = self.noise.range_f64(
            0x63,
            e,
            self.min_duration.as_micros() as f64,
            self.max_duration.as_micros() as f64,
        ) as u64;
        let dur = SimDuration::from_micros(dur_us.min(self.epoch.as_micros()));
        let slack = self.epoch.as_micros().saturating_sub(dur.as_micros());
        let offset = (self.noise.unit_f64(0x64, e) * slack as f64) as u64;
        let start = SimTime(e * self.epoch.as_micros() + offset);
        Some((start, dur, SimDuration::from_secs_f64(mag_ms / 1e3)))
    }
}

impl SlowPath for RandomShifts {
    fn extra_delay(&self, t: SimTime) -> SimDuration {
        let e = t.as_micros() / self.epoch.as_micros();
        // An event never spans epochs (duration capped), so only the current
        // epoch can cover `t`.
        if let Some((start, dur, mag)) = self.event_in_epoch(e) {
            if t >= start && t.since(start) < dur {
                return mag;
            }
        }
        SimDuration::ZERO
    }
}

/// Restrict a slow-path model to a time window (zero outside it).
///
/// The KNET control-plane elevation only starts on 06/08/2016 even though
/// the link was discovered on 29/06/2016 (§6.2.1).
pub struct WindowedSlowPath<S: SlowPath> {
    /// First instant the inner model applies.
    pub from: SimTime,
    /// First instant after the window (use a far-future time for open-ended).
    pub until: SimTime,
    /// The wrapped model.
    pub inner: S,
}

impl<S: SlowPath> SlowPath for WindowedSlowPath<S> {
    fn extra_delay(&self, t: SimTime) -> SimDuration {
        if t >= self.from && t < self.until {
            self.inner.extra_delay(t)
        } else {
            SimDuration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of five-minute samples over `[from, to)` during which `sp` is
    /// elevated above `threshold`.
    fn elevated_fraction(sp: &dyn SlowPath, from: SimTime, to: SimTime, threshold: SimDuration) -> f64 {
        let step = 5 * 60 * 1_000_000u64;
        let mut total = 0u64;
        let mut hot = 0u64;
        let mut t = from;
        while t < to {
            total += 1;
            if sp.extra_delay(t) > threshold {
                hot += 1;
            }
            t += SimDuration::from_micros(step);
        }
        if total == 0 {
            0.0
        } else {
            hot as f64 / total as f64
        }
    }

    #[test]
    fn knet_shape_afternoon_plateau_midnight_dip() {
        let sp = DiurnalSlowPath::knet_like(SimDuration::from_millis(20), HashNoise::new(5));
        let afternoon = sp.extra_delay(SimTime::from_datetime(2016, 9, 14, 15, 0, 0));
        let midnight = sp.extra_delay(SimTime::from_datetime(2016, 9, 14, 0, 30, 0));
        assert!(afternoon > SimDuration::from_millis(14), "{afternoon}");
        assert!(midnight < SimDuration::from_millis(6), "{midnight}");
    }

    #[test]
    fn knet_same_on_weekends() {
        let sp = DiurnalSlowPath::knet_like(SimDuration::from_millis(20), HashNoise::new(5));
        // Wed 2016-09-14 vs Sun 2016-09-18, same hour: similar levels.
        let wed = sp.extra_delay(SimTime::from_datetime(2016, 9, 14, 15, 0, 0)).as_millis_f64();
        let sun = sp.extra_delay(SimTime::from_datetime(2016, 9, 18, 15, 0, 0)).as_millis_f64();
        assert!((wed - sun).abs() < 6.0, "wed {wed} sun {sun}");
    }

    #[test]
    fn random_shifts_deterministic() {
        let a = RandomShifts::nuisance(HashNoise::new(9));
        let b = RandomShifts::nuisance(HashNoise::new(9));
        for d in 0..200u64 {
            let t = SimTime(d * 3_600_000_000);
            assert_eq!(a.extra_delay(t), b.extra_delay(t));
        }
    }

    #[test]
    fn random_shifts_occupancy_reasonable() {
        // Expected busy fraction ≈ p_event * E[dur]/epoch ≈ 0.35*6.4/72 ≈ 3%.
        let sp = RandomShifts::nuisance(HashNoise::new(11));
        let f = elevated_fraction(
            &sp,
            SimTime::ZERO,
            SimTime::from_date(2016, 12, 1),
            SimDuration::from_millis(1),
        );
        assert!((0.005..0.12).contains(&f), "elevated fraction {f}");
    }

    #[test]
    fn random_shifts_magnitudes_in_range() {
        let sp = RandomShifts::nuisance(HashNoise::new(13));
        let mut seen_any = false;
        for d in 0..365u64 {
            for h in 0..24u64 {
                let v = sp.extra_delay(SimTime(d * 86_400_000_000 + h * 3_600_000_000));
                if v > SimDuration::ZERO {
                    seen_any = true;
                    assert!(v >= SimDuration::from_millis(4) && v <= SimDuration::from_millis(45), "{v}");
                }
            }
        }
        assert!(seen_any, "a year of nuisance shifts produced nothing");
    }

    #[test]
    fn events_do_not_recur_daily() {
        // A diurnal detector folding by time of day should see no stable
        // peak: check that the hour-of-day histogram of elevated samples is
        // spread out over a long horizon.
        let sp = RandomShifts::nuisance(HashNoise::new(17));
        let mut byhour = [0u32; 24];
        for d in 0..365u64 {
            for h in 0..24u64 {
                if sp.extra_delay(SimTime(d * 86_400_000_000 + h * 3_600_000_000)) > SimDuration::ZERO {
                    byhour[h as usize] += 1;
                }
            }
        }
        let total: u32 = byhour.iter().sum();
        let max = *byhour.iter().max().unwrap();
        assert!(total > 0);
        // No single hour hosts the majority of elevation.
        assert!((max as f64) < 0.25 * total as f64, "hour histogram too peaked: {byhour:?}");
    }
}
