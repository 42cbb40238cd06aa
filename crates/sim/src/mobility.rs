//! Random-waypoint mobility.
//!
//! Each node repeatedly: pauses at its current waypoint for the configured
//! pause time, picks a uniform random destination in the area and a
//! uniform random speed, and travels there in a straight line. This is the
//! CMU `setdest` model the paper uses ("can move up to 20 m/s with a pause
//! time 60 s whenever it changes its direction", §5.1).
//!
//! Positions are evaluated lazily: [`MobilityState::position_at`] advances
//! the leg state machine only as far as the queried time, so the simulator
//! pays nothing for mobility between transmissions.

use crate::config::MobilityParams;
use crate::time::SimTime;
use agr_geom::{Point, Rect};
use rand::Rng;

/// One straight-line movement leg.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Leg {
    /// Where the leg starts.
    from: Point,
    /// Waypoint the leg ends at.
    to: Point,
    /// Departure time (end of the pause at `from`).
    depart: SimTime,
    /// Arrival time at `to`.
    arrive: SimTime,
}

/// Mobility state of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityState {
    leg: Leg,
}

impl MobilityState {
    /// Places a node at `start` (it pauses there before its first leg).
    #[must_use]
    pub fn new(start: Point) -> Self {
        MobilityState {
            leg: Leg {
                from: start,
                to: start,
                depart: SimTime::ZERO,
                arrive: SimTime::ZERO,
            },
        }
    }

    /// The node's position at time `t`, advancing the waypoint state
    /// machine as needed.
    ///
    /// `t` must not go backwards between calls (discrete-event time is
    /// monotone); queries within the same leg are pure interpolation.
    pub fn position_at<R: Rng + ?Sized>(
        &mut self,
        t: SimTime,
        params: &MobilityParams,
        area: Rect,
        rng: &mut R,
    ) -> Point {
        // Advance through any completed legs (plus pauses).
        while t >= self.leg.arrive + params.pause {
            let depart = self.leg.arrive + params.pause;
            let from = self.leg.to;
            let to = area.point_at(rng.random_range(0.0..=1.0), rng.random_range(0.0..=1.0));
            let speed = rng.random_range(params.min_speed..=params.max_speed);
            let travel = SimTime::from_secs_f64(from.distance(to) / speed);
            self.leg = Leg {
                from,
                to,
                depart,
                arrive: depart + travel,
            };
        }
        let leg = &self.leg;
        if t <= leg.depart {
            leg.from
        } else if t >= leg.arrive {
            leg.to
        } else {
            let frac = (t - leg.depart).as_secs_f64() / (leg.arrive - leg.depart).as_secs_f64();
            leg.from.lerp(leg.to, frac)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (MobilityParams, Rect, StdRng) {
        (
            MobilityParams {
                min_speed: 1.0,
                max_speed: 20.0,
                pause: SimTime::from_secs(60),
            },
            Rect::with_size(1500.0, 300.0),
            StdRng::seed_from_u64(11),
        )
    }

    #[test]
    fn stays_at_start_during_initial_pause() {
        let (params, area, mut rng) = setup();
        let start = Point::new(100.0, 100.0);
        let mut m = MobilityState::new(start);
        assert_eq!(m.position_at(SimTime::ZERO, &params, area, &mut rng), start);
        assert_eq!(
            m.position_at(SimTime::from_secs(59), &params, area, &mut rng),
            start
        );
    }

    #[test]
    fn moves_after_pause() {
        let (params, area, mut rng) = setup();
        let start = Point::new(100.0, 100.0);
        let mut m = MobilityState::new(start);
        // Well after the pause the node has departed (almost surely moved).
        let p = m.position_at(SimTime::from_secs(100), &params, area, &mut rng);
        assert!(p.distance(start) > 0.0);
        assert!(area.contains(p));
    }

    #[test]
    fn positions_always_in_area() {
        let (params, area, mut rng) = setup();
        let mut m = MobilityState::new(Point::new(750.0, 150.0));
        for s in (0..3600).step_by(7) {
            let p = m.position_at(SimTime::from_secs(s), &params, area, &mut rng);
            assert!(area.contains(p), "escaped area at t={s}: {p}");
        }
    }

    #[test]
    fn movement_respects_speed_limit() {
        let (params, area, mut rng) = setup();
        let mut m = MobilityState::new(Point::new(750.0, 150.0));
        let mut prev = m.position_at(SimTime::ZERO, &params, area, &mut rng);
        for s in 1..1800 {
            let p = m.position_at(SimTime::from_secs(s), &params, area, &mut rng);
            let dist = p.distance(prev);
            assert!(
                dist <= params.max_speed + 1e-9,
                "moved {dist} m in 1 s at t={s}"
            );
            prev = p;
        }
    }

    #[test]
    fn same_seed_same_trajectory() {
        let (params, area, _) = setup();
        let mut rng1 = StdRng::seed_from_u64(5);
        let mut rng2 = StdRng::seed_from_u64(5);
        let mut m1 = MobilityState::new(Point::ORIGIN);
        let mut m2 = MobilityState::new(Point::ORIGIN);
        for s in (0..1000).step_by(13) {
            let t = SimTime::from_secs(s);
            assert_eq!(
                m1.position_at(t, &params, area, &mut rng1),
                m2.position_at(t, &params, area, &mut rng2)
            );
        }
    }

    #[test]
    fn speed_zero_while_paused() {
        let (params, area, mut rng) = setup();
        let mut m = MobilityState::new(Point::ORIGIN);
        let p1 = m.position_at(SimTime::from_secs(1), &params, area, &mut rng);
        let p2 = m.position_at(SimTime::from_secs(2), &params, area, &mut rng);
        assert_eq!(p1, p2);
    }

    #[test]
    fn speed_bounded_while_moving() {
        let (params, area, mut rng) = setup();
        let mut m = MobilityState::new(Point::ORIGIN);
        // Advance past the first pause so a real leg exists.
        let t = SimTime::from_secs(70);
        let p1 = m.position_at(t, &params, area, &mut rng);
        let p2 = m.position_at(t + SimTime::from_millis(100), &params, area, &mut rng);
        // The path between the two fixes is at most 0.1 s of legs, each
        // at most `max_speed`, and the straight line is no longer.
        let v = p1.distance(p2) / 0.1;
        assert!(v <= params.max_speed + 1e-9, "speed {v} exceeds limit");
    }
}
