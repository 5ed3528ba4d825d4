//! Simulated time and calendar utilities.
//!
//! The simulator's clock is a monotonically increasing count of microseconds
//! since the *simulation epoch*, which is fixed at **2016-01-01 00:00:00 UTC**
//! so that the paper's measurement dates (22/02/2016 .. 07/04/2017) map onto
//! natural offsets. Calendar arithmetic (day-of-week, hour-of-day, civil
//! dates) is needed because the studied congestion waveforms are diurnal and
//! weekly: GIXA–GHANATEL peaks on business days, QCELL–NETPAGE spikes reach
//! 35 ms on weekdays but only ~15 ms on weekends (§6.2).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;
/// Microseconds in one minute.
pub const MICROS_PER_MIN: u64 = 60 * MICROS_PER_SEC;
/// Microseconds in one hour.
pub const MICROS_PER_HOUR: u64 = 60 * MICROS_PER_MIN;
/// Microseconds in one day.
pub const MICROS_PER_DAY: u64 = 24 * MICROS_PER_HOUR;

/// The civil date of the simulation epoch (`SimTime::ZERO`).
pub const EPOCH_DATE: Date = Date { year: 2016, month: 1, day: 1 };

/// A span of simulated time, in microseconds. Always non-negative.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }
    /// Duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }
    /// Duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }
    /// Duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * MICROS_PER_MIN)
    }
    /// Duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * MICROS_PER_HOUR)
    }
    /// Duration from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * MICROS_PER_DAY)
    }
    /// Duration from fractional seconds. Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "duration must be finite and non-negative: {s}");
        SimDuration((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }
    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by an integer factor.
    pub const fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us == 0 {
            return write!(f, "0s");
        }
        if us < 1_000 {
            write!(f, "{}us", us)
        } else if us < MICROS_PER_SEC {
            write!(f, "{:.3}ms", us as f64 / 1_000.0)
        } else if us < MICROS_PER_MIN {
            write!(f, "{:.3}s", us as f64 / MICROS_PER_SEC as f64)
        } else if us < MICROS_PER_DAY {
            let h = us / MICROS_PER_HOUR;
            let m = (us % MICROS_PER_HOUR) / MICROS_PER_MIN;
            let s = (us % MICROS_PER_MIN) / MICROS_PER_SEC;
            write!(f, "{h}h{m:02}m{s:02}s")
        } else {
            let d = us / MICROS_PER_DAY;
            let h = (us % MICROS_PER_DAY) / MICROS_PER_HOUR;
            let m = (us % MICROS_PER_HOUR) / MICROS_PER_MIN;
            write!(f, "{d}d{h:02}h{m:02}m")
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

/// An instant of simulated time: microseconds since 2016-01-01 00:00:00 UTC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch, 2016-01-01 00:00:00 UTC.
    pub const ZERO: SimTime = SimTime(0);

    /// Instant at the given civil date (midnight UTC). Panics if the date
    /// precedes the epoch.
    pub fn from_date(year: i32, month: u32, day: u32) -> Self {
        let d = Date { year, month, day };
        let days = d.days_from_civil_epoch() - EPOCH_DATE.days_from_civil_epoch();
        assert!(days >= 0, "date {d} precedes simulation epoch {EPOCH_DATE}");
        SimTime(days as u64 * MICROS_PER_DAY)
    }

    /// Instant at the given civil date and time of day (UTC).
    pub fn from_datetime(year: i32, month: u32, day: u32, hour: u32, min: u32, sec: u32) -> Self {
        assert!(hour < 24 && min < 60 && sec < 60, "invalid time of day {hour}:{min}:{sec}");
        SimTime::from_date(year, month, day)
            + SimDuration::from_hours(hour as u64)
            + SimDuration::from_mins(min as u64)
            + SimDuration::from_secs(sec as u64)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }
    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }
    /// Whole days since the epoch (truncated).
    pub const fn day_index(self) -> u64 {
        self.0 / MICROS_PER_DAY
    }
    /// Fractional hour of day in `[0, 24)`.
    pub fn hour_of_day(self) -> f64 {
        (self.0 % MICROS_PER_DAY) as f64 / MICROS_PER_HOUR as f64
    }
    /// Offset into the current day.
    pub const fn time_of_day(self) -> SimDuration {
        SimDuration(self.0 % MICROS_PER_DAY)
    }

    /// Day of week for this instant. 2016-01-01 was a Friday.
    pub fn weekday(self) -> Weekday {
        // 2016-01-01 = Friday = index 4 when Monday = 0.
        Weekday::from_index(((self.day_index() + 4) % 7) as u8)
    }

    /// True on Saturday or Sunday — the paper's case studies all key
    /// amplitude off business days vs weekends.
    pub fn is_weekend(self) -> bool {
        matches!(self.weekday(), Weekday::Sat | Weekday::Sun)
    }

    /// Civil date of this instant (UTC).
    pub fn date(self) -> Date {
        Date::from_days_from_civil_epoch(EPOCH_DATE.days_from_civil_epoch() + self.day_index() as i64)
    }

    /// Elapsed time since `earlier`. Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(earlier.0).expect("time underflow in since()"))
    }

    /// Saturating difference.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 { self } else { other }
    }
    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 { self } else { other }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("time underflow"))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.date();
        let tod = self.0 % MICROS_PER_DAY;
        let h = tod / MICROS_PER_HOUR;
        let m = (tod % MICROS_PER_HOUR) / MICROS_PER_MIN;
        let s = (tod % MICROS_PER_MIN) / MICROS_PER_SEC;
        write!(f, "{d} {h:02}:{m:02}:{s:02}")
    }
}

/// Day of week, Monday-first.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum Weekday {
    /// Monday.
    Mon,
    /// Tuesday.
    Tue,
    /// Wednesday.
    Wed,
    /// Thursday.
    Thu,
    /// Friday.
    Fri,
    /// Saturday.
    Sat,
    /// Sunday.
    Sun,
}

impl Weekday {
    fn from_index(i: u8) -> Weekday {
        match i {
            0 => Weekday::Mon,
            1 => Weekday::Tue,
            2 => Weekday::Wed,
            3 => Weekday::Thu,
            4 => Weekday::Fri,
            5 => Weekday::Sat,
            6 => Weekday::Sun,
            _ => unreachable!("weekday index out of range"),
        }
    }
}

/// A civil (proleptic Gregorian) date.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    /// Calendar year.
    pub year: i32,
    /// Month, 1–12.
    pub month: u32,
    /// Day of month, 1-based.
    pub day: u32,
}

impl Date {
    /// Construct, panicking on out-of-range month/day.
    pub fn new(year: i32, month: u32, day: u32) -> Date {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!(day >= 1 && day <= days_in_month(year, month), "day out of range: {year}-{month}-{day}");
        Date { year, month, day }
    }

    /// Days since 1970-01-01 (may be negative), via Howard Hinnant's
    /// `days_from_civil` algorithm.
    fn days_from_civil_epoch(self) -> i64 {
        let y = if self.month <= 2 { self.year - 1 } else { self.year } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146097 + doe - 719468
    }

    /// Inverse of [`Date::days_from_civil_epoch`].
    fn from_days_from_civil_epoch(z: i64) -> Date {
        let z = z + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        Date { year: (if m <= 2 { y + 1 } else { y }) as i32, month: m as u32, day: d as u32 }
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl fmt::Debug for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

/// True for Gregorian leap years (2016 is one; the campaign includes 29 Feb 2016).
fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in the given month.
fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => panic!("invalid month {month}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_2016_friday() {
        assert_eq!(SimTime::ZERO.date(), Date::new(2016, 1, 1));
        assert_eq!(SimTime::ZERO.weekday(), Weekday::Fri);
    }

    #[test]
    fn leap_day_2016_exists() {
        // The QCELL–NETPAGE phase 1 starts 29/02/2016.
        let t = SimTime::from_date(2016, 2, 29);
        assert_eq!(t.date(), Date::new(2016, 2, 29));
        assert_eq!(t.weekday(), Weekday::Mon);
        assert_eq!(t.day_index(), 31 + 28);
    }

    #[test]
    fn campaign_dates_roundtrip() {
        for (y, m, d) in [
            (2016, 2, 22),
            (2016, 3, 3),
            (2016, 4, 28),
            (2016, 6, 14),
            (2016, 6, 15),
            (2016, 8, 6),
            (2016, 10, 6),
            (2017, 3, 27),
            (2017, 4, 7),
        ] {
            let t = SimTime::from_date(y, m, d);
            assert_eq!(t.date(), Date::new(y, m, d), "{y}-{m}-{d}");
        }
    }

    #[test]
    fn weekday_progression() {
        // 2016-01-01 Fri, 2016-01-02 Sat, 2016-01-04 Mon.
        assert_eq!(SimTime::from_date(2016, 1, 2).weekday(), Weekday::Sat);
        assert!(SimTime::from_date(2016, 1, 2).is_weekend());
        assert_eq!(SimTime::from_date(2016, 1, 4).weekday(), Weekday::Mon);
        assert!(!SimTime::from_date(2016, 1, 4).is_weekend());
    }

    #[test]
    fn datetime_and_hour_of_day() {
        let t = SimTime::from_datetime(2016, 7, 19, 13, 30, 0);
        assert!((t.hour_of_day() - 13.5).abs() < 1e-9);
        assert_eq!(t.time_of_day(), SimDuration::from_mins(13 * 60 + 30));
    }

    #[test]
    fn duration_arithmetic_and_display() {
        let d = SimDuration::from_hours(2) + SimDuration::from_mins(14);
        assert_eq!(d, SimDuration::from_secs(2 * 3600 + 14 * 60));
        assert_eq!(format!("{d}"), "2h14m00s");
        assert_eq!(format!("{}", SimDuration::from_millis(17)), "17.000ms");
        assert_eq!(format!("{}", SimDuration::from_days(3)), "3d00h00m");
        assert_eq!(d.saturating_sub(SimDuration::from_days(1)), SimDuration::ZERO);
    }

    #[test]
    fn time_display() {
        let t = SimTime::from_datetime(2016, 8, 6, 0, 5, 9);
        assert_eq!(format!("{t}"), "2016-08-06 00:05:09");
    }

    #[test]
    fn since_and_ordering() {
        let a = SimTime::from_date(2016, 3, 1);
        let b = SimTime::from_date(2016, 3, 2);
        assert_eq!(b.since(a), SimDuration::from_days(1));
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    #[should_panic(expected = "time underflow")]
    fn since_panics_backwards() {
        let a = SimTime::from_date(2016, 3, 1);
        let b = SimTime::from_date(2016, 3, 2);
        let _ = a.since(b);
    }

    #[test]
    fn days_in_month_table() {
        assert_eq!(days_in_month(2016, 2), 29);
        assert_eq!(days_in_month(2017, 2), 28);
        assert_eq!(days_in_month(2000, 2), 29);
        assert_eq!(days_in_month(1900, 2), 28);
        assert_eq!(days_in_month(2016, 4), 30);
        assert_eq!(days_in_month(2016, 12), 31);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015), SimDuration::from_micros(2));
        assert_eq!(SimDuration::from_secs_f64(1.0), SimDuration::from_secs(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Civil-date conversion round-trips over ±200 years of days.
        #[test]
        fn civil_date_roundtrip(z in -73000i64..73000) {
            let d = Date::from_days_from_civil_epoch(z);
            prop_assert_eq!(d.days_from_civil_epoch(), z);
            prop_assert!((1..=12).contains(&d.month));
            prop_assert!(d.day >= 1 && d.day <= days_in_month(d.year, d.month));
        }

        /// SimTime date/weekday arithmetic is consistent: consecutive days
        /// advance the weekday cyclically and the date by exactly one.
        #[test]
        fn consecutive_days_consistent(day in 0u64..4000) {
            let a = SimTime(day * MICROS_PER_DAY);
            let b = SimTime((day + 1) * MICROS_PER_DAY);
            let za = a.date().days_from_civil_epoch();
            let zb = b.date().days_from_civil_epoch();
            prop_assert_eq!(zb - za, 1);
            prop_assert_eq!(((za % 7) + 7) % 7, ((zb % 7 + 6) % 7));
        }

        /// time_of_day + day boundary reconstruct the instant.
        #[test]
        fn day_decomposition(us in 0u64..(5000 * MICROS_PER_DAY)) {
            let t = SimTime(us);
            let rebuilt = t.day_index() * MICROS_PER_DAY + t.time_of_day().as_micros();
            prop_assert_eq!(rebuilt, us);
            prop_assert!(t.hour_of_day() < 24.0);
        }
    }
}
