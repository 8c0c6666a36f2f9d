//! The measured phases: the saturated closed loop, the paced open loop,
//! and the per-layer micro-timings of the traced run.

use crate::fixture::{parse_filter, Fixture, Got};
use crate::oracle::{check_content, seq_of, Checker, Oracle};
use crate::rng::Rng;
use crate::spec::Spec;
use crate::stats::median;
use crate::sys::{self, Usage};
use crate::trace::SpanLog;
use rjms_broker::{BrokerConfig, Message};
use rjms_net::wire::{self, Request, Response, WireFilter, WireMessage};
use rjms_net::{BrokerServer, RemoteBroker};
use std::hint::black_box;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Floor of [`Window::ran`], against coarse steal readings.
const MIN_RAN: f64 = 0.05;

/// Longest wait for one expected copy before it counts as lost.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(5);

/// Operations of this process so far, for the result line and the
/// overrun report.
#[derive(Debug, Clone, Copy)]
pub struct Tally {
    /// Messages published.
    pub attempted: u64,
    /// Failed operations: publishes that failed, copies that did not arrive
    /// or arrived wrong, and end-state checks that did not hold.
    pub failed: u64,
}

static TALLY: Mutex<Tally> = Mutex::new(Tally { attempted: 0, failed: 0 });

/// Adds to this process's tally.
pub fn count(attempted: u64, failed: u64) {
    let mut tally = TALLY.lock().unwrap_or_else(PoisonError::into_inner);
    tally.attempted += attempted;
    tally.failed += failed;
}

/// This process's tally so far.
pub fn tally() -> Tally {
    *TALLY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Publishes and checks the messages of one fixture, numbered from 0.
#[derive(Debug)]
pub struct Gen<'a> {
    spec: &'a Spec,
    oracle: &'a Oracle,
    /// The fixture's deliveries, held to the oracle.
    pub checker: Checker<'a>,
    /// Messages published so far.
    pub published: u64,
    /// The current batch's messages, built before its timed part.
    outgoing: Vec<(usize, Message)>,
    /// Copies the current batch must produce, per subscription.
    need: Vec<u32>,
    /// The current batch's copies, checked after its timed part.
    got: Vec<(usize, Got)>,
}

/// One stretch of the saturated phase. Its times cover only the calls to
/// publish and receive: building the messages and checking the copies are
/// the benchmark's own work and fall outside them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Messages published (and fully drained).
    pub msgs: u64,
    /// Wall-clock time inside publish and receive.
    pub secs: f64,
    /// Process CPU and context switches used meanwhile.
    pub usage: Usage,
    /// Share of the stretch's wall-clock time the hypervisor left the
    /// process's CPU to this machine (1 without steal).
    pub ran: f64,
}

impl Window {
    /// Messages per second of time the CPU was there to run them: time the
    /// hypervisor gave to other machines is no cost of the broker.
    pub fn throughput(&self) -> f64 {
        self.msgs as f64 / (self.secs * self.ran)
    }

    /// Process CPU microseconds per message.
    pub fn cpu_us_per_msg(&self) -> f64 {
        self.usage.cpu().as_secs_f64() * 1e6 / self.msgs as f64
    }
}

/// What the paced phase measured.
#[derive(Debug, Default)]
pub struct Paced {
    /// Due-to-receive time of every copy, in nanoseconds.
    pub latency_ns: Vec<u64>,
    /// How late each publish started after its due time, in nanoseconds.
    pub late_ns: Vec<u64>,
}

fn fail(what: String) -> String {
    count(0, 1);
    what
}

impl<'a> Gen<'a> {
    /// A generator for a fresh fixture.
    pub fn new(spec: &'a Spec, oracle: &'a Oracle) -> Gen<'a> {
        Gen {
            spec,
            oracle,
            checker: Checker::new(spec, oracle),
            published: 0,
            outgoing: Vec::with_capacity(spec.batch),
            need: Vec::new(),
            got: Vec::new(),
        }
    }

    /// One closed-loop batch: publish `spec.batch` messages, then drain
    /// every copy they must produce. Returns the time spent in the publish
    /// and receive calls.
    fn batch(&mut self, fx: &Fixture, mut log: Option<&mut SpanLog>) -> Result<Window, String> {
        let first = self.published;
        let (spec, oracle) = (self.spec, self.oracle);
        let seqs = first..first + spec.batch as u64;
        self.outgoing.clear();
        self.outgoing.extend(seqs.clone().map(|seq| (spec.template(seq).topic, spec.message(seq))));
        self.need.clear();
        self.need.resize(fx.subs(), 0);
        for seq in seqs {
            for &j in oracle.targets(seq) {
                self.need[j as usize] += 1;
            }
        }
        self.got.clear();

        let (start, before) = (Instant::now(), Usage::now());
        if let Some(l) = log.as_deref_mut() {
            l.enter("gen.batch", None);
        }
        for (topic, message) in self.outgoing.drain(..) {
            let seq = self.published;
            self.published += 1;
            let sent = match log.as_deref_mut() {
                Some(l) => l.time("broker.publish", Some(seq), || fx.publish(topic, message)),
                None => fx.publish(topic, message),
            };
            if let Err(e) = sent {
                count(self.published - first, 0);
                return Err(fail(e));
            }
        }
        count(spec.batch as u64, 0);
        if let Some(l) = log.as_deref_mut() {
            l.enter("gen.drain", None);
        }
        for (j, &n) in self.need.iter().enumerate() {
            for _ in 0..n {
                if let Some(l) = log.as_deref_mut() {
                    l.enter("broker.receive", None);
                }
                let got = fx.receive_timeout(j, RECV_TIMEOUT);
                if let Some(l) = log.as_deref_mut() {
                    l.exit(got.as_ref().and_then(|g| seq_of(g.message())));
                }
                let got =
                    got.ok_or_else(|| fail(format!("sub {j}: no copy within {RECV_TIMEOUT:?}")))?;
                self.got.push((j, got));
            }
        }
        if let Some(l) = log {
            l.exit(None);
            l.exit(None);
        }
        let timed = Window {
            msgs: spec.batch as u64,
            secs: start.elapsed().as_secs_f64(),
            usage: Usage::now().since(&before),
            ran: 1.0,
        };

        for (j, got) in &self.got {
            self.checker.observe(*j, got.message());
        }
        Ok(timed)
    }

    /// The saturated closed loop for `dur`, cut into `windows` stretches of
    /// whole batches.
    pub fn saturate(
        &mut self,
        fx: &Fixture,
        windows: usize,
        dur: Duration,
        mut log: Option<&mut SpanLog>,
    ) -> Result<Vec<Window>, String> {
        let slice = dur / windows as u32;
        let mut out = Vec::with_capacity(windows);
        for _ in 0..windows {
            let (start, stolen) = (Instant::now(), sys::stolen());
            let mut window = Window::default();
            while start.elapsed() < slice {
                let batch = self.batch(fx, log.as_deref_mut())?;
                window.msgs += batch.msgs;
                window.secs += batch.secs;
                window.usage = window.usage.plus(&batch.usage);
            }
            let stolen = sys::stolen().saturating_sub(stolen).as_secs_f64();
            window.ran = (1.0 - stolen / start.elapsed().as_secs_f64()).clamp(MIN_RAN, 1.0);
            out.push(window);
        }
        Ok(out)
    }

    /// The paced open loop: Poisson arrivals at `spec.rate` for `dur`,
    /// from a schedule drawn from `seed`. This thread sleeps until each
    /// message is due and publishes it; a second thread blocks on each
    /// expected copy in publish order and times it from its message's due
    /// time, derived from the schedule and the copy's sequence number.
    /// Neither thread spins, so a busy host delays them only by its wake-up
    /// latency, which the measurement then includes.
    pub fn paced(&mut self, fx: &Fixture, seed: u64, dur: Duration) -> Result<Paced, String> {
        let mut rng = Rng::new(seed, 2);
        let mut due = Vec::new();
        let mut t = 0.0;
        loop {
            t += rng.exp(self.spec.rate);
            if t >= dur.as_secs_f64() {
                break;
            }
            due.push(Duration::from_secs_f64(t));
        }
        let first = self.published;
        let (oracle, checker) = (self.oracle, &mut self.checker);
        let due = &due;
        let start = Instant::now() + Duration::from_millis(1);
        let (published, late, latency) = std::thread::scope(|scope| {
            let receiver = scope.spawn(move || {
                let mut latency = Vec::with_capacity(due.len());
                for (i, due_in) in due.iter().enumerate() {
                    let seq = first + i as u64;
                    for &j in oracle.targets(seq) {
                        let got = fx.receive_timeout(j as usize, RECV_TIMEOUT);
                        let at = Instant::now();
                        let got = got.ok_or_else(|| fail(format!("sub {j}: no copy of {seq}")))?;
                        if checker.observe(j as usize, got.message()).is_some() {
                            latency.push(at.duration_since(start + *due_in).as_nanos() as u64);
                        }
                    }
                }
                Ok::<_, String>(latency)
            });
            sys::set_timer_slack_ns(TIMER_SLACK_NS);
            let mut late = Vec::with_capacity(due.len());
            let mut published = 0u64;
            for due_in in due {
                let at = start + *due_in;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(Instant::now().saturating_duration_since(at).as_nanos() as u64);
                let seq = first + published;
                published += 1;
                count(1, 0);
                if let Err(e) = fx.publish(self.spec.template(seq).topic, self.spec.message(seq)) {
                    // The receiver gives up on the missing copies by timeout.
                    return (published, late, Err(fail(e)));
                }
            }
            sys::set_timer_slack_ns(DEFAULT_TIMER_SLACK_NS);
            let latency = receiver.join().expect("paced receiver does not panic");
            (published, late, latency)
        });
        self.published += published;
        Ok(Paced { latency_ns: latency?, late_ns: late })
    }
}

/// Timer slack of the paced publisher: how late the kernel may wake it.
const TIMER_SLACK_NS: u64 = 1_000;
/// Linux's default timer slack, restored after the paced phase.
const DEFAULT_TIMER_SLACK_NS: u64 = 50_000;

/// Median publish-to-receive time, in microseconds, of `n` round trips
/// made one at a time on a single connection that both publishes and
/// subscribes, against a fresh server. On that connection each delivery
/// is written right after the publish acknowledgement, so it shows a
/// stall in the server's small writes that two connections can hide.
pub fn same_connection_roundtrip_us(spec: &Spec, n: u64) -> Result<f64, String> {
    let server = BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("probe server: {e}"))?;
    let client = RemoteBroker::connect(server.local_addr()).map_err(|e| format!("probe: {e}"))?;
    let topic = &spec.topics[0];
    client.create_topic(topic).map_err(|e| format!("probe: {e}"))?;
    let sub = client.subscribe(topic, WireFilter::None).map_err(|e| format!("probe: {e}"))?;
    let mut times = Vec::with_capacity(n as usize);
    for seq in 0..n {
        let start = Instant::now();
        client.publish(topic, &spec.message(seq)).map_err(|e| format!("probe: {e}"))?;
        let got = sub.receive_timeout(RECV_TIMEOUT).ok_or("probe: no delivery")?;
        times.push(start.elapsed().as_secs_f64() * 1e6);
        check_content(spec, seq, &got)?;
    }
    drop(sub);
    drop(client);
    server.shutdown();
    Ok(median(&times))
}

/// Repeats `f` over `items` until at least `budget` has passed; returns
/// nanoseconds per item.
fn per_call<T>(items: &[T], budget: Duration, mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Nanoseconds per `Filter::matches` call over the workload's own messages,
/// each checked against every filter of its topic.
pub fn match_ns(spec: &Spec, budget: Duration) -> Result<f64, String> {
    let filters = spec.subs.iter().map(parse_filter).collect::<Result<Vec<_>, _>>()?;
    let pairs: Vec<_> = (0..256u64)
        .flat_map(|seq| {
            let m = spec.message(seq);
            let topic = spec.template(seq).topic;
            (0..spec.subs.len())
                .filter(move |&j| spec.subs[j].topic == topic)
                .map(move |j| (j, m.clone()))
        })
        .collect();
    Ok(per_call(&pairs, budget, |(j, m)| {
        black_box(filters[*j].matches(black_box(m)));
    }))
}

/// Wire costs on the workload's messages: nanoseconds to encode a publish
/// request, nanoseconds to read and decode a delivery frame into a
/// message, and the delivery frame's size in bytes.
pub fn wire_costs(spec: &Spec, budget: Duration) -> (f64, f64, f64) {
    let messages: Vec<_> = (0..256u64).map(|s| spec.message(s)).collect();
    let encode = per_call(&messages, budget / 2, |m| {
        let req = Request::Publish {
            request_id: 1,
            topic: spec.topics[0].clone(),
            message: WireMessage::from_message(m).without_trace(),
        };
        black_box(wire::encode_request(&req));
    });
    let frames: Vec<_> = messages
        .iter()
        .map(|m| {
            wire::encode_response(&Response::Delivery {
                subscription_id: 1,
                message: WireMessage::from_message(m).without_trace(),
            })
        })
        .collect();
    let bytes = frames.iter().map(|f| f.len()).sum::<usize>() as f64 / frames.len() as f64;
    let decode = per_call(&frames, budget / 2, |frame| {
        let body = wire::read_frame(&mut &frame[..]).ok().flatten();
        if let Some(Ok(Response::Delivery { message, .. })) = body.map(wire::decode_response) {
            black_box(message.into_message());
        }
    });
    (encode, decode, bytes)
}
