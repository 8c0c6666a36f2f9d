//! The output oracle, written apart from the broker.
//!
//! The set of subscriptions each message must reach comes from the
//! benchmark's own reading of each rule ([`selects`]), never from
//! `Filter::matches`. [`Checker`] then holds the broker to it: each
//! expected copy arrives exactly once, in publish order per subscription,
//! with its body and properties intact. [`verify_journal`] reads the
//! write-ahead journal back after shutdown and checks that it holds every
//! published message, in order.

use crate::spec::{Payload, Rule, Spec, SubSpec, Template, SEQ, TEMPLATES};
use rjms_broker::persist::JournalRecord;
use rjms_broker::{JournalConfig, Message};
use rjms_journal::Journal;
use rjms_selector::Value;
use std::path::Path;

/// How many violation descriptions a checker keeps.
const KEPT_VIOLATIONS: usize = 8;

/// Whether `sub` must receive a message built from `template`.
pub fn selects(sub: &SubSpec, template: &Template) -> bool {
    if sub.topic != template.topic {
        return false;
    }
    match (&sub.rule, &template.payload) {
        (Rule::Range { lo, hi }, Payload::Corr { value, .. }) => lo <= value && value <= hi,
        (Rule::KeyPrice { key, threshold }, Payload::KeyPrice { key: k, price }) => {
            key == k && price > threshold
        }
        _ => false,
    }
}

/// The expected routing of one round, per template and per subscription.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Subscriptions each template must reach, ascending.
    targets: Vec<Vec<u32>>,
    /// Template indices each subscription receives within a round, ascending.
    positions: Vec<Vec<u32>>,
}

impl Oracle {
    /// Routes every template of `spec`'s round.
    pub fn new(spec: &Spec) -> Oracle {
        let mut positions = vec![Vec::new(); spec.subs.len()];
        let targets = spec
            .templates
            .iter()
            .enumerate()
            .map(|(t, template)| {
                let hit: Vec<u32> = (0..spec.subs.len())
                    .filter(|&j| selects(&spec.subs[j], template))
                    .map(|j| j as u32)
                    .collect();
                for &j in &hit {
                    positions[j as usize].push(t as u32);
                }
                hit
            })
            .collect();
        Oracle { targets, positions }
    }

    /// Subscriptions message `seq` must reach.
    pub fn targets(&self, seq: u64) -> &[u32] {
        &self.targets[(seq % TEMPLATES as u64) as usize]
    }

    /// Copies of messages `0..published` that `sub` must receive.
    pub fn expected_count(&self, sub: usize, published: u64) -> u64 {
        let pos = &self.positions[sub];
        let rem = published % TEMPLATES as u64;
        published / TEMPLATES as u64 * pos.len() as u64
            + pos.partition_point(|&p| u64::from(p) < rem) as u64
    }

    /// Copies of messages `0..published` all subscriptions must receive.
    pub fn expected_total(&self, published: u64) -> u64 {
        (0..self.positions.len()).map(|j| self.expected_count(j, published)).sum()
    }

    /// Sequence number of the `k`-th copy (from 0) `sub` must receive.
    fn kth(&self, sub: usize, k: u64) -> Option<u64> {
        let pos = &self.positions[sub];
        let n = pos.len() as u64;
        (n > 0).then(|| k / n * TEMPLATES as u64 + u64::from(pos[(k % n) as usize]))
    }
}

/// Checks that `message` is intact as message `seq` of `spec`.
pub fn check_content(spec: &Spec, seq: u64, message: &Message) -> Result<(), String> {
    let template = spec.template(seq);
    let body = message.body();
    if body.len() != template.body.len()
        || body[..8] != seq.to_le_bytes()
        || body[8..] != template.body[8..]
    {
        return Err(format!("message {seq}: body differs"));
    }
    let props = message.properties();
    let intact = match &template.payload {
        Payload::Corr { id, .. } => {
            message.correlation_id() == Some(id.as_str()) && props.len() == 1
        }
        Payload::KeyPrice { key, price } => {
            message.correlation_id().is_none()
                && props.len() == 3
                && props.get("key") == Some(&Value::Int(*key))
                && matches!(props.get("price"), Some(Value::Float(p)) if p.to_bits() == price.to_bits())
        }
    };
    if intact {
        Ok(())
    } else {
        Err(format!("message {seq}: header or properties differ"))
    }
}

/// The sequence number a delivered copy carries.
pub fn seq_of(message: &Message) -> Option<u64> {
    match message.property(SEQ) {
        Some(Value::Int(s)) => u64::try_from(*s).ok(),
        _ => None,
    }
}

/// Holds a run's deliveries to the oracle.
#[derive(Debug)]
pub struct Checker<'a> {
    spec: &'a Spec,
    oracle: &'a Oracle,
    /// Copies accepted per subscription.
    received: Vec<u64>,
    violations: u64,
    kept: Vec<String>,
}

impl<'a> Checker<'a> {
    /// A checker expecting nothing yet.
    pub fn new(spec: &'a Spec, oracle: &'a Oracle) -> Checker<'a> {
        Checker {
            spec,
            oracle,
            received: vec![0; spec.subs.len()],
            violations: 0,
            kept: Vec::new(),
        }
    }

    fn violate(&mut self, what: String) {
        self.violations += 1;
        if self.kept.len() < KEPT_VIOLATIONS {
            self.kept.push(what);
        }
    }

    /// Checks one copy delivered to `sub`; returns its sequence number when
    /// it is the next copy `sub` must receive and arrived intact.
    pub fn observe(&mut self, sub: usize, message: &Message) -> Option<u64> {
        let Some(seq) = seq_of(message) else {
            self.violate(format!("sub {sub}: delivery without a sequence number"));
            return None;
        };
        let expected = self.oracle.kth(sub, self.received[sub]);
        if expected != Some(seq) {
            let routed = self.oracle.targets(seq).contains(&(sub as u32));
            let what = match expected {
                _ if !routed => "a message it does not select",
                Some(e) if seq < e => "a duplicate",
                _ => "a copy out of order (an earlier one is missing or late)",
            };
            self.violate(format!("sub {sub}: got {what}: seq {seq}, expected {expected:?}"));
            return None;
        }
        if let Err(e) = check_content(self.spec, seq, message) {
            self.violate(format!("sub {sub}: {e}"));
            return None;
        }
        self.received[sub] += 1;
        Some(seq)
    }

    /// Checks that every copy of messages `0..published` arrived; records a
    /// violation per subscription that lacks some. Returns whether the
    /// checker is clean.
    pub fn finish(&mut self, published: u64) -> bool {
        for sub in 0..self.received.len() {
            let want = self.oracle.expected_count(sub, published);
            if self.received[sub] != want {
                let got = self.received[sub];
                self.violate(format!("sub {sub}: {got} copies accepted, {want} expected"));
            }
        }
        self.is_clean()
    }

    /// Violations found so far, including those not kept.
    pub fn violation_count(&self) -> u64 {
        self.violations
    }

    /// No violation so far.
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }

    /// The first violations, described.
    pub fn violations(&self) -> &[String] {
        &self.kept
    }
}

/// Reads the journal in `dir` back and checks that its publish records are
/// the last of messages `0..published` that retention kept, in order, on
/// the right topics and intact. The journal numbers every frame it ever
/// appended and the workload's topic records come first, so message `seq`
/// must sit at offset `topics + seq`: a message missing from a segment that
/// retention has since removed would shift every later one.
pub fn verify_journal(spec: &Spec, dir: &Path, published: u64) -> Result<(), String> {
    let (journal, _) =
        Journal::open(JournalConfig::new(dir)).map_err(|e| format!("journal reopen: {e}"))?;
    let topics = spec.topics.len() as u64;
    let mut next = None;
    for entry in journal.replay(journal.first_offset()) {
        let (offset, payload) = entry.map_err(|e| format!("journal read: {e}"))?;
        let record =
            JournalRecord::decode(&payload).map_err(|e| format!("journal offset {offset}: {e}"))?;
        let JournalRecord::Publish { topic, message } = record else { continue };
        let seq = offset.checked_sub(topics).filter(|&s| next.unwrap_or(s) == s);
        let Some(seq) = seq.filter(|&s| seq_of(&message) == Some(s)) else {
            return Err(format!(
                "journal offset {offset}: message {:?} out of place",
                seq_of(&message)
            ));
        };
        if topic != spec.topics[spec.template(seq).topic] {
            return Err(format!("journal offset {offset}: message {seq} on topic {topic}"));
        }
        check_content(spec, seq, &message).map_err(|e| format!("journal: {e}"))?;
        next = Some(seq + 1);
    }
    match next {
        Some(n) if n == published => Ok(()),
        None if published == 0 => Ok(()),
        _ => Err(format!("journal ends before message {published} at {next:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use rjms_broker::persist::encode_publish;

    /// Every copy of messages `0..n` in publish order, as a correct broker
    /// delivers them.
    fn ideal(oracle: &Oracle, n: u64) -> Vec<(usize, u64)> {
        (0..n).flat_map(|s| oracle.targets(s).iter().map(move |&j| (j as usize, s))).collect()
    }

    fn run(spec: &Spec, deliveries: &[(usize, Message)], published: u64) -> bool {
        let oracle = Oracle::new(spec);
        let mut checker = Checker::new(spec, &oracle);
        for (sub, m) in deliveries {
            checker.observe(*sub, m);
        }
        checker.finish(published)
    }

    fn materialize(spec: &Spec, copies: &[(usize, u64)]) -> Vec<(usize, Message)> {
        copies.iter().map(|&(j, s)| (j, spec.message(s))).collect()
    }

    const N: u64 = 2 * TEMPLATES as u64 + 37;

    #[test]
    fn routing_matches_the_workload_definitions() {
        let fanout = Oracle::new(&Spec::new(Workload::CorridFanout, 5));
        assert!((0..N).all(|s| fanout.targets(s).len() == 8));
        let wire = Oracle::new(&Spec::new(Workload::TcpLoopback, 5));
        assert!((0..N).all(|s| wire.targets(s).len() == 2));
        let durable = Oracle::new(&Spec::new(Workload::SelectorDurable, 5));
        let replication = durable.expected_total(N) as f64 / N as f64;
        assert!((1.5..2.5).contains(&replication), "{replication}");
        let copies = ideal(&fanout, N).len() as u64;
        assert_eq!(fanout.expected_total(N), copies);
    }

    #[test]
    fn correct_delivery_passes() {
        for w in Workload::ALL {
            let spec = Spec::new(w, 11);
            let copies = ideal(&Oracle::new(&spec), N);
            assert!(run(&spec, &materialize(&spec, &copies), N), "{}", w.name());
        }
    }

    #[test]
    fn dropped_copy_is_caught() {
        let spec = Spec::new(Workload::CorridFanout, 11);
        let mut copies = ideal(&Oracle::new(&spec), N);
        copies.remove(100);
        assert!(!run(&spec, &materialize(&spec, &copies), N));
        // Also when the dropped copy is the subscription's last one.
        let mut copies = ideal(&Oracle::new(&spec), N);
        copies.pop();
        assert!(!run(&spec, &materialize(&spec, &copies), N));
    }

    #[test]
    fn duplicated_copy_is_caught() {
        let spec = Spec::new(Workload::TcpLoopback, 11);
        let mut copies = ideal(&Oracle::new(&spec), N);
        copies.insert(51, copies[50]);
        assert!(!run(&spec, &materialize(&spec, &copies), N));
    }

    #[test]
    fn reordered_copies_are_caught() {
        let spec = Spec::new(Workload::CorridFanout, 11);
        let copies = ideal(&Oracle::new(&spec), N);
        let sub = copies[0].0;
        let mine: Vec<usize> = (0..copies.len()).filter(|&i| copies[i].0 == sub).collect();
        let mut swapped = copies.clone();
        swapped.swap(mine[3], mine[4]);
        assert!(!run(&spec, &materialize(&spec, &swapped), N));
    }

    #[test]
    fn misrouted_copy_is_caught() {
        let spec = Spec::new(Workload::SelectorDurable, 11);
        let oracle = Oracle::new(&spec);
        let mut copies = ideal(&oracle, N);
        let stranger = (0..spec.subs.len()).find(|j| !oracle.targets(7).contains(&(*j as u32)));
        copies.push((stranger.expect("some subscription skips message 7"), 7));
        assert!(!run(&spec, &materialize(&spec, &copies), N));
    }

    #[test]
    fn corrupted_body_or_property_is_caught() {
        let spec = Spec::new(Workload::SelectorDurable, 11);
        let copies = ideal(&Oracle::new(&spec), N);
        let (sub, seq) = copies[20];

        let mut body = spec.body(seq);
        body[BODY_BYTE_TO_FLIP] ^= 1;
        let mut bad = materialize(&spec, &copies);
        bad[20] = (sub, rebuild(&spec, seq, body.clone(), None));
        assert!(!run(&spec, &bad, N));

        let mut bad = materialize(&spec, &copies);
        bad[20] = (sub, rebuild(&spec, seq, spec.body(seq), Some(1e9)));
        assert!(!run(&spec, &bad, N));
    }

    /// Writes a journal holding the workload's topic records and then the
    /// publish records of `seqs` (with `corrupt` altering one message), and
    /// checks it as a run that published `published` messages. With
    /// `retain`, small segments and a cap on them make the journal remove
    /// its oldest records.
    fn journal_check(
        seqs: &[u64],
        corrupt: Option<u64>,
        published: u64,
        retain: bool,
    ) -> Result<(), String> {
        let spec = Spec::new(Workload::SelectorDurable, 11);
        let dir = std::env::temp_dir().join(format!(
            "perfbench-oracle-{}-{}-{published}-{retain}",
            std::process::id(),
            seqs.len()
        ));
        let mut config = JournalConfig::new(&dir);
        if retain {
            config = config.segment_max_bytes(4096).max_sealed_segments(2);
        }
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut journal, _) = Journal::open(config).expect("journal opens");
            for topic in &spec.topics {
                let record = JournalRecord::TopicCreated { topic: topic.clone() };
                journal.append(&record.encode()).expect("append");
            }
            for &seq in seqs {
                let mut message = spec.message(seq);
                if corrupt == Some(seq) {
                    message = rebuild(&spec, seq, spec.body(seq), Some(1e9));
                }
                let topic = &spec.topics[spec.template(seq).topic];
                journal.append(&encode_publish(topic, &message)).expect("append");
            }
            assert_eq!(journal.first_offset() > 0, retain, "retention removed segments");
        }
        let result = verify_journal(&spec, &dir, published);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    #[test]
    fn journal_missing_reordered_or_corrupted_message_is_caught() {
        let all: Vec<u64> = (0..300).collect();
        assert_eq!(journal_check(&all, None, 300, false), Ok(()));
        assert!(journal_check(&all, None, 301, false).is_err(), "last message missing");
        let mut gap = all.clone();
        gap.remove(0);
        assert!(journal_check(&gap, None, 300, false).is_err(), "first message missing");
        let mut gap = all.clone();
        gap.remove(150);
        assert!(journal_check(&gap, None, 300, false).is_err(), "middle message missing");
        let mut swapped = all.clone();
        swapped.swap(10, 11);
        assert!(journal_check(&swapped, None, 300, false).is_err(), "messages reordered");
        assert!(journal_check(&all, Some(42), 300, false).is_err(), "message corrupted");
    }

    #[test]
    fn journal_check_follows_retention() {
        let all: Vec<u64> = (0..300).collect();
        assert_eq!(journal_check(&all, None, 300, true), Ok(()));
        // A message lost from a segment retention has since removed still
        // shifts the offsets of every later one.
        let mut gap = all.clone();
        gap.remove(3);
        assert!(journal_check(&gap, None, 300, true).is_err());
        assert!(journal_check(&all, Some(290), 300, true).is_err());
    }

    const BODY_BYTE_TO_FLIP: usize = 77;

    /// Message `seq` with the given body and, optionally, another price.
    fn rebuild(spec: &Spec, seq: u64, body: Vec<u8>, price: Option<f64>) -> Message {
        let Payload::KeyPrice { key, price: p } = spec.template(seq).payload else {
            panic!("selector workload carries key and price")
        };
        Message::builder()
            .property(SEQ, seq as i64)
            .property("key", key)
            .property("price", price.unwrap_or(p))
            .body(body)
            .build()
    }
}
