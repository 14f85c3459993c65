//! Token-bucket bandwidth enforcement (§4, Bandwidth Enforcer).
//!
//! The broker translates controller allocations into per-(demand, tunnel)
//! rate limits; the testbed uses switch meters, we use token buckets. Rates
//! are in Mbps; `consume` takes megabits.

use parking_lot::Mutex;
use std::collections::HashMap;

/// One token bucket: `rate` tokens/second, burst up to `burst` tokens.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: f64,
}

impl TokenBucket {
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        assert!(rate >= 0.0 && burst >= 0.0);
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: 0.0,
        }
    }

    /// Try to consume `amount` tokens at time `now` (seconds, monotone).
    /// Returns true if allowed.
    pub fn consume(&mut self, amount: f64, now: f64) -> bool {
        self.refill(now);
        if self.tokens >= amount {
            self.tokens -= amount;
            true
        } else {
            false
        }
    }

    /// How much could be sent right now without waiting.
    pub fn available(&mut self, now: f64) -> f64 {
        self.refill(now);
        self.tokens
    }

    fn refill(&mut self, now: f64) {
        if now > self.last {
            self.tokens = (self.tokens + (now - self.last) * self.rate).min(self.burst);
            self.last = now;
        }
    }

    /// Change the sustained rate (allocation update); burst scales with it.
    pub fn set_rate(&mut self, rate: f64) {
        self.rate = rate;
        self.burst = rate.max(1.0);
        self.tokens = self.tokens.min(self.burst);
    }

    pub fn rate(&self) -> f64 {
        self.rate
    }
}

/// The broker's enforcement table: one bucket per (demand, pair, tunnel).
#[derive(Default)]
pub struct Enforcer {
    buckets: Mutex<HashMap<(u64, u32, u32), TokenBucket>>,
}

impl Enforcer {
    pub fn new() -> Enforcer {
        Enforcer::default()
    }

    /// Install or update a rate limit.
    pub fn install(&self, demand: u64, pair: u32, tunnel: u32, rate: f64) {
        let mut buckets = self.buckets.lock();
        buckets
            .entry((demand, pair, tunnel))
            .and_modify(|b| b.set_rate(rate))
            .or_insert_with(|| TokenBucket::new(rate, rate.max(1.0)));
    }

    /// Remove every entry of a demand.
    pub fn remove_demand(&self, demand: u64) {
        self.buckets.lock().retain(|&(d, _, _), _| d != demand);
    }

    /// Attempt to send `amount` megabits for a flow at time `now`.
    pub fn try_send(&self, demand: u64, pair: u32, tunnel: u32, amount: f64, now: f64) -> bool {
        match self.buckets.lock().get_mut(&(demand, pair, tunnel)) {
            Some(b) => b.consume(amount, now),
            None => false, // no allocation installed → drop
        }
    }

    /// Total configured rate of a demand across tunnels.
    pub fn demand_rate(&self, demand: u64) -> f64 {
        self.buckets
            .lock()
            .iter()
            .filter(|(&(d, _, _), _)| d == demand)
            .map(|(_, b)| b.rate())
            .sum()
    }

    /// Number of installed flow entries.
    pub fn len(&self) -> usize {
        self.buckets.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_limits_sustained_rate() {
        let mut b = TokenBucket::new(100.0, 100.0);
        // Drain the initial burst.
        assert!(b.consume(100.0, 0.0));
        assert!(!b.consume(1.0, 0.0));
        // After 0.5 s, 50 tokens are back.
        assert!(b.consume(50.0, 0.5));
        assert!(!b.consume(1.0, 0.5));
        // Refill never exceeds burst.
        assert!(b.available(100.0) <= 100.0);
    }

    #[test]
    fn bucket_rate_update() {
        let mut b = TokenBucket::new(10.0, 10.0);
        b.set_rate(200.0);
        assert_eq!(b.rate(), 200.0);
        assert!(b.consume(10.0, 0.0)); // leftover tokens still usable
        assert!(b.consume(190.0, 1.0));
    }

    #[test]
    fn enforcer_table_operations() {
        let e = Enforcer::new();
        e.install(1, 0, 0, 60.0);
        e.install(1, 0, 1, 40.0);
        e.install(2, 3, 0, 10.0);
        assert_eq!(e.len(), 3);
        assert_eq!(e.demand_rate(1), 100.0);
        assert_eq!(e.demand_rate(2), 10.0);
        assert!(e.try_send(1, 0, 0, 30.0, 0.0));
        assert!(!e.try_send(9, 0, 0, 1.0, 0.0), "uninstalled flow drops");
        e.remove_demand(1);
        assert_eq!(e.len(), 1);
        assert_eq!(e.demand_rate(1), 0.0);
    }

    #[test]
    fn reinstall_updates_rate() {
        let e = Enforcer::new();
        e.install(1, 0, 0, 60.0);
        e.install(1, 0, 0, 25.0);
        assert_eq!(e.len(), 1);
        assert_eq!(e.demand_rate(1), 25.0);
    }
}
