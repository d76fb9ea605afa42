//! Point-to-point delivery model: random delay, FIFO order, fault injection.
//!
//! BGP sessions run over TCP: a later update can never overtake an earlier
//! one on the same session. A naive "now + random delay" model violates
//! that, so [`FifoChannel`] clamps each delivery to be no earlier than the
//! previous one on the same channel (plus one microsecond, keeping event
//! timestamps distinct and the trace easier to read).

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Uniform random delay in `[min, max]` — the paper models the combined
/// processing + transmission delay as U[10 ms, 20 ms].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayModel {
    pub min: SimDuration,
    pub max: SimDuration,
}

impl DelayModel {
    /// The paper's delay model: U[10 ms, 20 ms].
    pub fn paper_default() -> DelayModel {
        DelayModel {
            min: SimDuration::from_millis(10),
            max: SimDuration::from_millis(20),
        }
    }

    /// A fixed (degenerate) delay, handy in unit tests.
    pub fn fixed(d: SimDuration) -> DelayModel {
        DelayModel { min: d, max: d }
    }

    /// Sample one delay.
    pub fn sample(&self, rng: &mut Rng) -> SimDuration {
        let (lo, hi) = (self.min.as_micros(), self.max.as_micros());
        if hi <= lo {
            return self.min;
        }
        SimDuration::from_micros(rng.gen_range(lo..=hi))
    }
}

/// Probabilistic message loss (fault injection; zero by default — the paper
/// does not lose protocol messages, but the examples expose the knob).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossModel {
    /// Probability in [0, 1] that a message is silently dropped.
    pub drop_probability: f64,
}

impl LossModel {
    /// No loss.
    pub fn none() -> LossModel {
        LossModel {
            drop_probability: 0.0,
        }
    }

    /// Should this message be dropped?
    pub fn drops(&self, rng: &mut Rng) -> bool {
        rng.gen_bool(self.drop_probability)
    }
}

/// FIFO delivery-time generator for one directed channel. Holds only what
/// differs per channel (8 bytes); the delay model is the caller's, so
/// thousands of channels share one.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoChannel {
    last_delivery: SimTime,
}

impl FifoChannel {
    /// New channel: nothing sent yet.
    pub fn new() -> FifoChannel {
        FifoChannel::default()
    }

    /// Compute the delivery time for a message sent at `now` under `delay`,
    /// preserving FIFO order with all previously sent messages on this
    /// channel.
    pub fn delivery_time(&mut self, now: SimTime, delay: &DelayModel, rng: &mut Rng) -> SimTime {
        let natural = now + delay.sample(rng);
        let fifo_floor = self.last_delivery + SimDuration::from_micros(1);
        let t = natural.max(fifo_floor);
        self.last_delivery = t;
        t
    }

    /// Last delivery timestamp handed out (ZERO if none yet).
    pub fn last_delivery(&self) -> SimTime {
        self.last_delivery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_stream;

    #[test]
    fn delay_within_bounds() {
        let m = DelayModel::paper_default();
        let mut rng = rng_stream(1, 2);
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(10));
            assert!(d <= SimDuration::from_millis(20));
        }
    }

    #[test]
    fn delay_covers_the_range() {
        let m = DelayModel::paper_default();
        let mut rng = rng_stream(3, 4);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let d = m.sample(&mut rng).as_micros();
            if d < 12_000 {
                lo_seen = true;
            }
            if d > 18_000 {
                hi_seen = true;
            }
        }
        assert!(lo_seen && hi_seen, "uniform sampling should span the range");
    }

    #[test]
    fn fifo_never_reorders() {
        let mut ch = FifoChannel::new();
        let delay = DelayModel::paper_default();
        let mut rng = rng_stream(7, 8);
        let mut last = SimTime::ZERO;
        let mut send = SimTime::ZERO;
        for i in 0..500 {
            // Bursty sender: messages every 0–2 ms, delays 10–20 ms, so the
            // natural delivery times would frequently reorder.
            send += SimDuration::from_micros((i % 3) * 1000);
            let t = ch.delivery_time(send, &delay, &mut rng);
            assert!(t > last, "reordered: {t:?} after {last:?}");
            last = t;
        }
    }

    #[test]
    fn spaced_sends_use_natural_delay() {
        let mut ch = FifoChannel::new();
        let delay = DelayModel::fixed(SimDuration::from_millis(15));
        let mut rng = rng_stream(9, 10);
        let t1 = ch.delivery_time(SimTime::from_secs(1), &delay, &mut rng);
        let t2 = ch.delivery_time(SimTime::from_secs(2), &delay, &mut rng);
        assert_eq!(t1, SimTime::from_secs(1) + SimDuration::from_millis(15));
        assert_eq!(t2, SimTime::from_secs(2) + SimDuration::from_millis(15));
    }

    #[test]
    fn loss_model_rates() {
        let mut rng = rng_stream(11, 12);
        let loss = LossModel {
            drop_probability: 0.25,
        };
        let dropped = (0..10_000).filter(|_| loss.drops(&mut rng)).count();
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate}");
        assert!(!LossModel::none().drops(&mut rng));
    }
}
