//! The broker under test, in process or behind `BrokerServer` on loopback,
//! driven through its public API only.

use crate::spec::{Spec, SubSpec, Workload};
use crate::trace::SpanLog;
use rjms_broker::{
    Broker, BrokerConfig, Filter, FsyncPolicy, Message, MetricsConfig, MetricsRegistry,
    PersistenceConfig, Publisher, Subscriber, TopicObsConfig, TraceConfig,
};
use rjms_net::{BrokerServer, RemoteBroker, RemoteSubscriber, WireFilter};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Journal appends between `fdatasync` calls on `selector_durable`: one
/// per round of message templates.
pub const FSYNC_EVERY: u32 = 1024;
/// Sealed journal segments kept on `selector_durable`. The journal holds
/// every retained frame's position in memory, so without a cap the run's
/// memory would grow with the messages it published.
pub const RETAINED_SEGMENTS: usize = 4;

/// The optional broker layers a fixture turns on.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Live metrics (`broker.*` histograms).
    pub metrics: bool,
    /// Tail-sampled span recording inside the broker.
    pub trace: bool,
    /// Per-topic workload observatory.
    pub topic_obs: bool,
    /// Write-ahead journal in this directory.
    pub journal: Option<PathBuf>,
}

impl Layers {
    /// The layers `workload` runs with; `journal_dir` is used only when the
    /// workload journals.
    pub fn of(workload: Workload, journal_dir: PathBuf) -> Layers {
        match workload {
            Workload::SelectorDurable => {
                Layers { metrics: true, trace: true, topic_obs: true, journal: Some(journal_dir) }
            }
            Workload::CorridFanout | Workload::TcpLoopback => Layers::default(),
        }
    }

    fn config(&self) -> BrokerConfig {
        let mut b = BrokerConfig::builder();
        if self.metrics {
            b = b.metrics(MetricsConfig::default());
        }
        if self.trace {
            b = b.trace(TraceConfig::default());
        }
        if self.topic_obs {
            b = b.topic_obs(TopicObsConfig::default());
        }
        if let Some(dir) = &self.journal {
            b = b.persistence(PersistenceConfig::new(dir).journal(|j| {
                j.fsync(FsyncPolicy::EveryN(FSYNC_EVERY)).max_sealed_segments(RETAINED_SEGMENTS)
            }));
        }
        b.build()
    }
}

/// A delivered copy, from either transport.
#[derive(Debug)]
pub enum Got {
    /// From an in-process [`Subscriber`].
    Local(Arc<Message>),
    /// From a [`RemoteSubscriber`].
    Remote(Message),
}

impl Got {
    /// The delivered message.
    pub fn message(&self) -> &Message {
        match self {
            Got::Local(m) => m,
            Got::Remote(m) => m,
        }
    }
}

/// A running broker with a workload's topics and subscriptions.
pub enum Fixture {
    /// In-process broker, one publisher per topic.
    InProc { broker: Broker, publishers: Vec<Publisher>, subs: Vec<Subscriber> },
    /// Loopback server, one publisher and one subscriber connection.
    Tcp {
        server: BrokerServer,
        publisher: RemoteBroker,
        subscriber: RemoteBroker,
        subs: Vec<RemoteSubscriber>,
        topics: Vec<String>,
    },
}

fn traced<T>(log: &mut Option<&mut SpanLog>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match log {
        Some(log) => log.time(name, None, f),
        None => f(),
    }
}

impl Fixture {
    /// Starts the broker for `spec` with `layers`, creates its topics and
    /// opens its subscriptions. Setup calls are recorded in `log` if given.
    pub fn open(
        spec: &Spec,
        layers: &Layers,
        mut log: Option<&mut SpanLog>,
    ) -> Result<Fixture, String> {
        let config = layers.config();
        if spec.workload == Workload::TcpLoopback {
            return Fixture::open_tcp(spec, config, log);
        }
        let broker = traced(&mut log, "broker.start", || Broker::start(config));
        for topic in &spec.topics {
            traced(&mut log, "broker.create_topic", || broker.create_topic(topic))
                .map_err(|e| format!("create_topic {topic}: {e}"))?;
        }
        let mut subs = Vec::with_capacity(spec.subs.len());
        for sub in &spec.subs {
            let filter = traced(&mut log, filter_span(sub), || parse_filter(sub))?;
            let opened = traced(&mut log, "broker.subscribe", || {
                broker.subscription(&spec.topics[sub.topic]).filter(filter).open()
            });
            subs.push(opened.map_err(|e| format!("subscribe: {e}"))?);
        }
        let publishers = spec
            .topics
            .iter()
            .map(|t| broker.publisher(t).map_err(|e| format!("publisher {t}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Fixture::InProc { broker, publishers, subs })
    }

    fn open_tcp(
        spec: &Spec,
        config: BrokerConfig,
        mut log: Option<&mut SpanLog>,
    ) -> Result<Fixture, String> {
        let server =
            traced(&mut log, "net.server_start", || BrokerServer::start(config, "127.0.0.1:0"))
                .map_err(|e| format!("server start: {e}"))?;
        let addr = server.local_addr();
        let connect = |log: &mut Option<&mut SpanLog>| {
            traced(log, "net.connect", || RemoteBroker::connect(addr))
                .map_err(|e| format!("connect: {e}"))
        };
        let publisher = connect(&mut log)?;
        let subscriber = connect(&mut log)?;
        for topic in &spec.topics {
            traced(&mut log, "net.create_topic", || publisher.create_topic(topic))
                .map_err(|e| format!("create_topic {topic}: {e}"))?;
        }
        let mut subs = Vec::with_capacity(spec.subs.len());
        for sub in &spec.subs {
            let filter = WireFilter::CorrelationId(sub.filter_source());
            let opened = traced(&mut log, "net.subscribe", || {
                subscriber.subscribe(&spec.topics[sub.topic], filter)
            });
            subs.push(opened.map_err(|e| format!("subscribe: {e}"))?);
        }
        Ok(Fixture::Tcp { server, publisher, subscriber, subs, topics: spec.topics.clone() })
    }

    /// Publishes `message` on topic index `topic`.
    pub fn publish(&self, topic: usize, message: Message) -> Result<(), String> {
        match self {
            Fixture::InProc { publishers, .. } => publishers[topic].publish(message),
            Fixture::Tcp { publisher, topics, .. } => publisher.publish(&topics[topic], &message),
        }
        .map_err(|e| format!("publish: {e}"))
    }

    /// Number of subscriptions.
    pub fn subs(&self) -> usize {
        match self {
            Fixture::InProc { subs, .. } => subs.len(),
            Fixture::Tcp { subs, .. } => subs.len(),
        }
    }

    /// Takes a copy for subscription `sub` if one is waiting.
    pub fn try_receive(&self, sub: usize) -> Option<Got> {
        match self {
            Fixture::InProc { subs, .. } => subs[sub].try_receive().map(Got::Local),
            Fixture::Tcp { subs, .. } => subs[sub].try_receive().map(Got::Remote),
        }
    }

    /// Waits at most `timeout` for a copy for subscription `sub`.
    pub fn receive_timeout(&self, sub: usize, timeout: Duration) -> Option<Got> {
        match self {
            Fixture::InProc { subs, .. } => subs[sub].receive_timeout(timeout).map(Got::Local),
            Fixture::Tcp { subs, .. } => subs[sub].receive_timeout(timeout).map(Got::Remote),
        }
    }

    /// The embedded broker.
    pub fn broker(&self) -> &Broker {
        match self {
            Fixture::InProc { broker, .. } => broker,
            Fixture::Tcp { server, .. } => server.broker(),
        }
    }

    /// The wire-level registries: the server's and the publisher
    /// connection's (TCP only).
    pub fn wire_metrics(&self) -> Option<(MetricsRegistry, MetricsRegistry)> {
        match self {
            Fixture::InProc { .. } => None,
            Fixture::Tcp { server, publisher, .. } => Some((server.metrics(), publisher.metrics())),
        }
    }

    /// Copies still queued for any subscription (consumes them).
    pub fn leftover(&self) -> usize {
        (0..self.subs()).map(|j| std::iter::from_fn(|| self.try_receive(j)).count()).sum()
    }

    /// Stops the broker and every thread it started, waiting for them.
    pub fn close(self) {
        match self {
            Fixture::InProc { broker, publishers, subs } => {
                drop(subs);
                drop(publishers);
                broker.shutdown();
            }
            Fixture::Tcp { server, publisher, subscriber, subs, .. } => {
                drop(subs);
                drop(publisher);
                drop(subscriber);
                server.shutdown();
            }
        }
    }
}

fn filter_span(sub: &SubSpec) -> &'static str {
    match sub.rule {
        crate::spec::Rule::Range { .. } => "filter.corrid_parse",
        crate::spec::Rule::KeyPrice { .. } => "selector.parse",
    }
}

/// The broker filter for `sub`.
pub fn parse_filter(sub: &SubSpec) -> Result<Filter, String> {
    let source = sub.filter_source();
    match sub.rule {
        crate::spec::Rule::Range { .. } => {
            Filter::correlation_id(&source).map_err(|e| e.to_string())
        }
        crate::spec::Rule::KeyPrice { .. } => Filter::selector(&source).map_err(|e| e.to_string()),
    }
}
