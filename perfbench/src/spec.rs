//! Workload definitions: topics, subscriptions and the seeded message
//! round each workload publishes.
//!
//! A workload publishes message `seq` from template `seq % TEMPLATES`, so
//! every run repeats whole rounds of the same operations and the seed alone
//! fixes the inputs. The sequence number travels in the `seq` property and
//! in the first eight body bytes, which lets the oracle check order and
//! content of every delivered copy.

use crate::rng::Rng;
use rjms_broker::Message;

/// Message templates in one round.
pub const TEMPLATES: usize = 1024;
/// Body size of every message.
pub const BODY_BYTES: usize = 128;
/// Correlation-ID values are `#0` .. `#1023`.
const CORR_VALUES: i64 = 1024;
/// Name of the property carrying the sequence number.
pub const SEQ: &str = "seq";

/// The traffic mixes the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process, no optional layer: 128 correlation-ID ranges on one
    /// topic, every message matches exactly 8 (`E[R] = 8`).
    CorridFanout,
    /// In-process with journal, metrics, trace and topic observatory on:
    /// 4 topics × 16 selectors `key = k AND price > x`, about 2 matches.
    SelectorDurable,
    /// `BrokerServer` on loopback: one publisher connection, one subscriber
    /// connection with 4 correlation-ID ranges, every message matches 2.
    TcpLoopback,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] =
        [Workload::CorridFanout, Workload::SelectorDurable, Workload::TcpLoopback];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorridFanout => "corrid_fanout",
            Workload::SelectorDurable => "selector_durable",
            Workload::TcpLoopback => "tcp_loopback",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a subscription selects, in the benchmark's own terms.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// Correlation-ID range `[lo;hi]` over the numeric part of `#v`.
    Range { lo: i64, hi: i64 },
    /// Selector `key = key AND price > threshold`.
    KeyPrice { key: i64, threshold: f64 },
}

/// One subscription of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SubSpec {
    /// Index into [`Spec::topics`].
    pub topic: usize,
    /// The selection rule.
    pub rule: Rule,
}

impl SubSpec {
    /// The filter text handed to the broker.
    pub fn filter_source(&self) -> String {
        match self.rule {
            Rule::Range { lo, hi } => format!("[{lo};{hi}]"),
            Rule::KeyPrice { key, threshold } => format!("key = {key} AND price > {threshold}"),
        }
    }
}

/// The selecting part of a message.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Correlation ID `#value`.
    Corr { value: i64, id: String },
    /// Properties `key` (long) and `price` (double, whole cents).
    KeyPrice { key: i64, price: f64 },
}

/// One message of the round.
#[derive(Debug, Clone)]
pub struct Template {
    /// Index into [`Spec::topics`].
    pub topic: usize,
    /// The selecting header or properties.
    pub payload: Payload,
    /// Body bytes; the first eight are replaced by the sequence number.
    pub body: Vec<u8>,
}

/// A workload made concrete by a seed.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Topic names.
    pub topics: Vec<String>,
    /// Subscriptions, in the order they are opened.
    pub subs: Vec<SubSpec>,
    /// The message round.
    pub templates: Vec<Template>,
    /// Poisson arrival rate of the paced phase, messages per second.
    pub rate: f64,
    /// Messages per batch in the saturated closed loop; odd, so that the
    /// broker's every-64th-message stage sampling visits every position
    /// in a batch.
    pub batch: usize,
}

impl Spec {
    /// Builds `workload`'s topics, subscriptions and round from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        let mut rng = Rng::new(seed, 1);
        let (topics, subs, rate, batch) = match workload {
            Workload::CorridFanout => {
                (vec!["fanout".to_owned()], layered_ranges(&mut rng, 8, 16), 4000.0, 255)
            }
            Workload::SelectorDurable => {
                let topics = (0..4).map(|t| format!("orders.{t}")).collect();
                let subs = (0..4)
                    .flat_map(|topic| (0..16).map(move |j| (topic, j)))
                    .map(|(topic, j)| SubSpec {
                        topic,
                        rule: Rule::KeyPrice { key: j % 4, threshold: rng.below(100) as f64 + 0.5 },
                    })
                    .collect::<Vec<_>>();
                (topics, subs, 4000.0, 255)
            }
            Workload::TcpLoopback => {
                (vec!["wire".to_owned()], layered_ranges(&mut rng, 2, 2), 1000.0, 63)
            }
        };
        let templates = (0..TEMPLATES)
            .map(|_| {
                let topic = rng.below(topics.len() as u64) as usize;
                let payload = match workload {
                    Workload::SelectorDurable => Payload::KeyPrice {
                        key: rng.below(4) as i64,
                        price: rng.below(10_000) as f64 / 100.0,
                    },
                    _ => {
                        let value = rng.below(CORR_VALUES as u64) as i64;
                        Payload::Corr { value, id: format!("#{value}") }
                    }
                };
                let body = (0..BODY_BYTES).map(|_| rng.next_u64() as u8).collect();
                Template { topic, payload, body }
            })
            .collect();
        Spec { workload, topics, subs, templates, rate, batch }
    }

    /// The template message `seq` is built from.
    pub fn template(&self, seq: u64) -> &Template {
        &self.templates[(seq % TEMPLATES as u64) as usize]
    }

    /// The body message `seq` must carry.
    pub fn body(&self, seq: u64) -> Vec<u8> {
        let mut body = self.template(seq).body.clone();
        body[..8].copy_from_slice(&seq.to_le_bytes());
        body
    }

    /// Message `seq` as the generator publishes it.
    pub fn message(&self, seq: u64) -> Message {
        let seq_prop = i64::try_from(seq).expect("sequence numbers stay below 2^63");
        let builder = Message::builder().property(SEQ, seq_prop).body(self.body(seq));
        match &self.template(seq).payload {
            Payload::Corr { id, .. } => builder.correlation_id(id.clone()),
            Payload::KeyPrice { key, price } => {
                builder.property("key", *key).property("price", *price)
            }
        }
        .build()
    }
}

/// `layers` independent partitions of the correlation-ID space into
/// `ranges` contiguous ranges each, with seeded cut points: every message
/// matches exactly one range per layer, so `E[R] = layers`.
fn layered_ranges(rng: &mut Rng, layers: usize, ranges: usize) -> Vec<SubSpec> {
    let mut subs = Vec::with_capacity(layers * ranges);
    for _ in 0..layers {
        let mut cuts = Vec::with_capacity(ranges + 1);
        while cuts.len() < ranges - 1 {
            let c = 1 + rng.below(CORR_VALUES as u64 - 1) as i64;
            if !cuts.contains(&c) {
                cuts.push(c);
            }
        }
        cuts.push(0);
        cuts.push(CORR_VALUES);
        cuts.sort_unstable();
        for w in cuts.windows(2) {
            subs.push(SubSpec { topic: 0, rule: Rule::Range { lo: w[0], hi: w[1] - 1 } });
        }
    }
    subs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_the_inputs() {
        for w in Workload::ALL {
            let (a, b, c) = (Spec::new(w, 3), Spec::new(w, 3), Spec::new(w, 4));
            assert_eq!(a.subs, b.subs);
            assert_eq!(a.message(5).body(), b.message(5).body());
            assert_ne!(a.message(5).body(), c.message(5).body());
        }
    }

    #[test]
    fn ranges_partition_each_layer() {
        let spec = Spec::new(Workload::CorridFanout, 9);
        assert_eq!(spec.subs.len(), 128);
        for v in 0..CORR_VALUES {
            let hits = spec
                .subs
                .iter()
                .filter(|s| matches!(s.rule, Rule::Range { lo, hi } if lo <= v && v <= hi))
                .count();
            assert_eq!(hits, 8, "value {v}");
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
